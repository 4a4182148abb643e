// gstore_serve — the multi-tenant query daemon.
//
//   # serve a converted store on an ephemeral port (printed on stdout)
//   gstore_serve --store=/data/kron20
//
//   # fixed port, wider gangs, chaos testing
//   gstore_serve --store=/data/kron20 --port=7474 --max-gang=64
//                --fault-spec=seed=7,eio=0.001
//
// Clients speak newline-delimited JSON over TCP (docs/SERVE.md) — one
// request object per line, one response object per line. gstore_cli wraps
// the protocol for shells and scripts. Concurrent jobs share one tile-fetch
// stream per gang (src/serve/scheduler.h): the daemon reads each needed
// tile once per round no matter how many jobs subscribe to it.
//
// The process runs until a client sends {"op": "shutdown"} or it receives
// SIGINT/SIGTERM; both paths stop accepting, then either drain or cancel
// the job queue before exiting.
#include <csignal>
#include <cstdio>
#include <string>

#include "ingest/ingestor.h"
#include "io/fault.h"
#include "serve/server.h"
#include "util/options.h"
#include "util/status.h"

namespace {

gstore::serve::Server* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: a lock-free atomic store only. Calling stop() here
  // would lock Server::state_mu_ — which the main thread may already hold
  // inside wait_shutdown() when the signal lands on it (self-deadlock; the
  // debug-build lockdep catches it). wait_shutdown() polls the flag.
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gstore;
  Options opts;
  opts.add("store", "", "tile-store base path (from gstore_convert)");
  opts.add("host", "127.0.0.1", "listen address");
  opts.add("port", "0", "listen port (0 = ephemeral, printed on stdout)");
  opts.add("max-gang", "32", "jobs co-scheduled on one fetch stream (1-64)");
  opts.add("max-queued", "1024", "queued-job backpressure threshold");
  opts.add("stream-mb", "64", "scheduler stream memory budget (MiB)");
  opts.add("segment-mb", "8", "async I/O segment size (MiB)");
  opts.add("delta-budget-mb", "64", "ingest delta-buffer budget (MiB)");
  opts.add("devices", "0", "emulate N SSDs (0 = native speed)");
  opts.add("fault-spec", "",
           "inject I/O faults on the serve read path, e.g. "
           "seed=7,eio=0.01,short=0.05 (see io/fault.h)");

  try {
    opts.parse(argc, argv);
    if (opts.help_requested() || opts.get("store").empty()) {
      std::fputs(opts.usage("gstore_serve").c_str(), stdout);
      return opts.help_requested() ? 0 : 2;
    }

    ingest::IngestorOptions iopt;
    iopt.delta_budget_bytes =
        static_cast<std::uint64_t>(opts.get_int("delta-budget-mb")) << 20;
    ingest::EdgeIngestor ingestor(opts.get("store"), iopt);

    serve::ManagerOptions mopt;
    mopt.max_gang = static_cast<std::size_t>(opts.get_int("max-gang"));
    mopt.max_queued = static_cast<std::size_t>(opts.get_int("max-queued"));
    mopt.scheduler.stream_memory_bytes =
        static_cast<std::uint64_t>(opts.get_int("stream-mb")) << 20;
    mopt.scheduler.segment_bytes =
        static_cast<std::uint64_t>(opts.get_int("segment-mb")) << 20;
    mopt.snapshot_device.devices =
        static_cast<unsigned>(opts.get_int("devices"));
    mopt.snapshot_device.fault_spec = opts.get("fault-spec");
    if (!mopt.snapshot_device.fault_spec.empty())
      std::printf("fault injection: %s\n",
                  io::FaultSpec::parse(mopt.snapshot_device.fault_spec)
                      .to_string()
                      .c_str());

    serve::JobManager manager(ingestor, mopt);
    manager.start();

    serve::ServeOptions sopt;
    sopt.host = opts.get("host");
    sopt.port = static_cast<int>(opts.get_int("port"));
    serve::Server server(manager, sopt);
    server.start();

    // The port line is the boot handshake scripts wait for (tests and the
    // CI smoke parse it to find an ephemeral port).
    std::printf("gstore_serve ready on %s:%d\n", sopt.host.c_str(),
                server.port());
    std::fflush(stdout);

    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    const bool drain = server.wait_shutdown();
    server.stop();
    manager.stop(drain);
    g_server = nullptr;
    std::printf("gstore_serve: shut down (%s)\n",
                drain ? "drained" : "cancelled");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fputs("error: unknown exception\n", stderr);
    return 1;
  }
}
