// Pins the library's environment knobs (util/env.hpp) for a benchmark run.
#pragma once

#include <string>

namespace perfbench {

/// Clears every HBH_* variable from the process environment, then sets the
/// pinned ones: HBH_JOBS=1 (serial, one thread) and HBH_LOG_LEVEL=warn,
/// which is also applied to the logger. Everything else — fast path,
/// auditor, report/trace/audit/profile outputs, seeds, trial counts — is
/// left at its built-in default. Call before any library code runs.
void pin_environment();

/// The knobs as the library resolves them now, one `name=value` per knob
/// separated by spaces (printed by hbh_perfbench so a run records its config).
[[nodiscard]] std::string resolved_config();

}  // namespace perfbench
