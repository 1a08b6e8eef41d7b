#include "env_pin.hpp"

#include <cstdlib>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/env.hpp"
#include "util/log.hpp"

extern char** environ;

namespace perfbench {

void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry{*e};
    if (entry.rfind("HBH_", 0) != 0) continue;
    names.emplace_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("HBH_JOBS", "1", 1);
  setenv("HBH_LOG_LEVEL", "warn", 1);
  hbh::init_log_level_from_env();
}

std::string resolved_config() {
  std::ostringstream out;
  out << "jobs=" << hbh::env_jobs()
      << " fastpath=" << (hbh::env_fastpath() ? 1 : 0)
      << " log_level=" << hbh::to_string(hbh::Logger::instance().level())
      << " audit=" << (hbh::env_audit().empty() ? "off" : hbh::env_audit())
      << " report=" << (hbh::env_report_path().empty() ? "none" : "set")
      << " trace_out=" << (hbh::env_trace_out().empty() ? "none" : "set")
      << " audit_out=" << (hbh::env_audit_out().empty() ? "none" : "set")
      << " prof_out=" << (hbh::env_prof_out().empty() ? "none" : "set");
  return out.str();
}

}  // namespace perfbench
