// metaprepd wire protocol: one JSON object per line, each direction.
//
// A client dials the daemon's AF_UNIX socket, sends exactly one request
// line, reads exactly one response line, and closes.  Requests carry a
// "cmd" field; responses always carry "ok" (true/false) and echo "cmd",
// with "error" set when ok is false.  The formats are documented in
// DESIGN.md ("Service layer"); the summary:
//
//   {"cmd":"ping"}
//   {"cmd":"submit","index":PATH, optional "priority" and any run field of
//        core/run_fields.hpp under its JSON key (the CLI flag with '-' ->
//        '_'); any other key is a config error naming it}
//       -> {"ok":true,"job":ID,"predicted_bytes":N,...}
//   {"cmd":"status","job":ID}  -> state + result summary when done
//   {"cmd":"cancel","job":ID}
//   {"cmd":"fetch","job":ID}   -> output partition manifest (files, bins)
//   {"cmd":"list"} / {"cmd":"pause"} / {"cmd":"resume"} / {"cmd":"shutdown"}
//
// Parsing reuses util/json.hpp (the same trusted-subset reader the offline
// tools use); serialization is a small escape-correct writer here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/queue.hpp"

namespace metaprep::util {
class Args;
}  // namespace metaprep::util

namespace metaprep::serve {

/// Incremental single-line JSON object writer: {"k":v,...}.
class JsonLineWriter {
 public:
  JsonLineWriter() : out_("{") {}
  void field(const std::string& key, const std::string& value);
  void field_raw(const std::string& key, const std::string& raw);  ///< pre-encoded
  void field(const std::string& key, std::uint64_t value);
  void field(const std::string& key, std::int64_t value);
  void field(const std::string& key, int value) { field(key, static_cast<std::int64_t>(value)); }
  void field(const std::string& key, double value);
  void field(const std::string& key, bool value);
  void field_strings(const std::string& key, const std::vector<std::string>& values);
  [[nodiscard]] std::string finish();

 private:
  void comma();
  std::string out_;
  bool first_ = true;
};

/// Serialize one job snapshot (the "status" response body, also embedded in
/// "submit" and "list" responses).  @p with_manifest additionally includes
/// the output file list (the "fetch" response).
[[nodiscard]] std::string job_to_json(const JobInfo& info, bool with_manifest);

/// Build a JobSpec from a "submit" request line: table defaults, then the
/// request's run fields.  Throws util::Error on missing/invalid fields and
/// on unknown keys.
[[nodiscard]] JobSpec parse_submit(const std::string& request_line);

/// The "submit" request line for `metaprep_cli daemon submit` flags: --index,
/// --priority and every given run field, validated here and forwarded under
/// its JSON key.  --socket is the client's own.
[[nodiscard]] std::string submit_request(const util::Args& args);

/// Uniform error response: {"ok":false,"cmd":...,"error":...}.
[[nodiscard]] std::string error_response(const std::string& cmd, const std::string& error);

}  // namespace metaprep::serve
