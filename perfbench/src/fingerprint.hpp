// Host and build fingerprint recorded with every result, so results are
// only ever compared within one host class and one build.
#pragma once

#include <string>

namespace perfbench {

/// JSON object: cpu_model, nproc, build_type, compiler.
std::string fingerprint_json();

/// JSON string escaping for the small strings the benchmark emits.
std::string json_quote(const std::string& s);

}  // namespace perfbench
