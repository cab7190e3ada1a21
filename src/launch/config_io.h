#pragma once

#include <string>

#include "common/status.h"
#include "runtime/threaded_runtime.h"

namespace pr {

/// \brief Text serialization of a RunConfig for launcher -> worker handoff.
///
/// The launcher writes the run request once; every spawned process loads it
/// and reconstructs an identical RunConfig, which is what makes the
/// multi-process engine deterministic — dataset, model, replica init, and
/// batch order are all pure functions of the config. The format is
/// line-oriented `key value...` text (`prconfig 1` header, `#` comments,
/// repeated keys for list entries) so it round-trips without a JSON parser;
/// floating-point fields are printed with enough digits (%.17g) to restore
/// bit-identical values.
std::string SerializeRunConfig(const RunConfig& config);

/// Parses text produced by SerializeRunConfig. Strict: unknown keys, bad
/// header, malformed values or trailing tokens fail with kInvalidArgument (a
/// version skew between launcher and worker binaries must not be silently
/// half-applied).
Status ParseRunConfig(const std::string& text, RunConfig* out);

/// Convenience wrappers: write (atomically, temp + rename) / read a config
/// file.
Status SaveRunConfig(const std::string& path, const RunConfig& config);
Status LoadRunConfig(const std::string& path, RunConfig* out);

/// \brief JSON view of a RunConfig, written and read from the same field
/// table as the text dialect.
///
/// The JSON form is a flat object whose members mirror the `key value...`
/// lines one-to-one ({"prconfig": 1, "strategy.kind": "CON", ...}): a
/// one-value line is a scalar, a several-value line an array, and a
/// repeated key (run.delay, fault.edge, ...) an array of per-line arrays.
/// Values are typed: an enum or path is a string, everything else a number,
/// and integer keys take only integral numbers in range (2.0 reads as 2;
/// 2.5, true and "2" fail); bool keys read 0/1 or true/false. Every key the
/// text parser accepts is the key the JSON parser accepts.
std::string RunConfigToJson(const RunConfig& config);

/// Parses the JSON form back into a RunConfig. Unknown members, malformed
/// values, or a missing/mismatched "prconfig" version fail with
/// kInvalidArgument, exactly like ParseRunConfig.
Status RunConfigFromJson(const std::string& json, RunConfig* out);

}  // namespace pr
