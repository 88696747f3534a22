// metaprepd: METAPREP preprocessing as a local service.
//
//   metaprepd --socket=PATH [--mem-budget-mb=N] [--max-threads=N]
//             [--job-dir=DIR]
//
// Binds an AF_UNIX socket and serves the line-oriented JSON protocol in
// serve/proto.hpp until a {"cmd":"shutdown"} request arrives.  Jobs run one
// at a time (priority then FIFO) inside per-job PipelineSessions; per-job
// trace/metrics artifacts land in --job-dir (default: the socket's
// directory).  --mem-budget-mb caps admission by the paper's §3.7 per-task
// memory model; --max-threads caps each job's simulated P*T.  Submit and
// poll with `metaprep_cli daemon ...`.
#include <cstdio>

#include "serve/daemon.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace metaprep;
  const util::Args args(argc, argv);
  if (!args.has("socket")) {
    std::fprintf(stderr,
                 "usage: metaprepd --socket=PATH [--mem-budget-mb=N] [--max-threads=N] "
                 "[--job-dir=DIR]\n");
    return 2;
  }
  try {
    args.reject_unknown("metaprepd", {"socket", "mem-budget-mb", "max-threads", "job-dir"});
    serve::DaemonOptions opt;
    opt.socket_path = args.get("socket", "");
    const double budget_mb = args.get_double("mem-budget-mb", 0.0);
    if (!(budget_mb >= 0.0 && budget_mb <= 1e12))
      throw util::config_error("--mem-budget-mb must be in [0, 1e12]");
    opt.mem_budget_bytes = static_cast<std::uint64_t>(budget_mb * 1e6);
    const std::int64_t max_threads = args.get_int("max-threads", 0);
    if (max_threads < 0 || max_threads > 65535)
      throw util::config_error("--max-threads must be in [0, 65535]");
    opt.max_threads = static_cast<int>(max_threads);
    opt.job_dir = args.get("job-dir", "");
    serve::Daemon daemon(std::move(opt));
    daemon.serve();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metaprepd: %s\n", e.what());
    return 1;
  }
  return 0;
}
