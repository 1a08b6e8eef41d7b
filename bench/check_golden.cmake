# Runs a figure bench at a fixed small trial count and compares its stdout
# byte for byte against a committed golden file. Any change to the event
# order, the fabric or the protocols that moves a single figure digit fails
# here, including one that shifts serial and parallel runs alike (which the
# HBH_JOBS=1 vs 4 comparison cannot see). Invoked by the golden_output
# ctest cases (see bench/CMakeLists.txt); expects -DBENCH (binary path),
# -DGOLDEN (expected stdout) and -DOUT (where the actual stdout is written),
# and takes -DJOBS (HBH_JOBS, default 1): every job count must print the
# same golden file. Knobs that change a figure's output, and the artifact
# paths that add a "report:" / "trace:" / "audit:" / "profile:" line (and
# would profile the sweep), are unset so a stray environment cannot make
# the comparison pass or fail spuriously.
if(NOT DEFINED JOBS)
  set(JOBS 1)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    --unset=HBH_SEED --unset=HBH_CSV --unset=HBH_CHANNELS
    --unset=HBH_CHURN_ON --unset=HBH_CHURN_OFF --unset=HBH_RATE
    --unset=HBH_PAYLOAD --unset=HBH_QUEUE_LIMIT --unset=HBH_AQM
    --unset=HBH_AUDIT --unset=HBH_LOG_LEVEL
    --unset=HBH_REPORT --unset=HBH_PROF_OUT --unset=HBH_TRACE_OUT
    --unset=HBH_AUDIT_OUT
    HBH_TRIALS=4 HBH_JOBS=${JOBS} ${BENCH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE bench_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench exited with ${rc}:\n${actual}\n${bench_stderr}")
endif()
file(WRITE "${OUT}" "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "${BENCH} stdout at HBH_JOBS=${JOBS} differs from ${GOLDEN}\n"
    "--- expected\n${expected}\n--- actual (${OUT})\n${actual}")
endif()
