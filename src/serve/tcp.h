// Event-driven TCP front-end for the estimation service.
//
// Transport: loopback TCP, newline-delimited JSON (serve/wire.h).
// num_connection_threads epoll worker loops share a nonblocking
// listening socket (EPOLLEXCLUSIVE where available); each accepted
// connection is owned by the worker that accepted it and carries a
// read buffer (offset-consumed, amortized compaction — a pipelined
// burst costs O(bytes), not O(bytes * lines)) and a write backlog
// flushed on EPOLLOUT when the socket fills. Tens of thousands of
// idle connections cost one epoll registration each, no threads.
//
// Request handling: cheap ops (ping, metrics, stats, health, ...)
// answer inline on the worker. Estimates are submitted to the
// EstimateService *asynchronously*: each request line gets an ordered
// reply slot on its connection, the worker polls outstanding futures
// between epoll waits, and replies are released strictly in request
// order — so pipelined clients see byte-identical reply sequences and
// a tenant whose requests are queued can never stall another tenant's
// connections at the transport layer (the fairness the admission
// queue provides would otherwise be defeated here).
//
// Accept robustness: transient accept failures — EMFILE/ENFILE (fd
// exhaustion), ECONNABORTED, ENOMEM, EINTR — are counted
// (serve_accept_retries) and retried with a short backoff instead of
// killing the loop, so a burst of failures degrades throughput but
// never turns the server deaf.
//
// Datasets: requests carry an optional "dataset" wire field routed
// through a DatasetCatalog (absent = "default"); swap resolves a
// per-dataset rebuild source. The single-catalog constructor wraps
// its catalog as the "default" dataset.
//
// Lifecycle: Start() binds and spawns the workers; the server runs
// until Stop() — called directly, or by WaitForShutdown() after a
// client sends {"op":"shutdown"} (the worker flushes the reply, flags
// the stop, and teardown happens on the WaitForShutdown caller's
// thread). Stop wakes every worker via an eventfd; workers close
// their own connections and exit.

#ifndef TWIG_SERVE_TCP_H_
#define TWIG_SERVE_TCP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cst/cst.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "util/status.h"

namespace twig::serve {

/// How a dataset rebuilds on the "swap" op.
struct RebuildSource {
  /// Builds a replacement summary, `space` being the client-requested
  /// space fraction (0 = builder's default): an in-memory cst::Cst or
  /// e.g. a cst::PagedCst over a TWCST03 store.
  std::function<Result<std::shared_ptr<const cst::CstView>>(double space)>
      rebuild_view;
  /// The data tree the rebuild summarizes, attached to each swapped-in
  /// snapshot so the accuracy sampler keeps working after a swap.
  std::shared_ptr<const tree::Tree> rebuild_data;

  bool empty() const { return !rebuild_view; }
};

struct TcpOptions {
  /// Port to bind on 127.0.0.1; 0 = kernel-assigned ephemeral port
  /// (read it back from port() after Start).
  uint16_t port = 0;
  /// Epoll worker loops. Each owns the connections it accepted.
  size_t num_connection_threads = 4;
  /// A request line longer than this closes the connection with a
  /// structured error (guards the per-connection buffer).
  size_t max_line_bytes = 1 << 20;
  /// The default dataset's rebuild source for the "swap" op (see
  /// RebuildSource). Unset = swap answers Unimplemented.
  std::function<Result<std::shared_ptr<const cst::CstView>>(double space)>
      rebuild_view;
  /// The data tree `rebuild_view` summarizes (see RebuildSource).
  std::shared_ptr<const tree::Tree> rebuild_data;
  /// Rebuild sources for non-default datasets, keyed by dataset id. A
  /// "default" entry here overrides the two fields above.
  std::map<std::string, RebuildSource> dataset_rebuilds;
};

class TcpFrontEnd {
 public:
  /// Single-dataset compatibility constructor: wraps `catalog` as the
  /// "default" dataset. `catalog` and `service` must outlive the
  /// front-end.
  TcpFrontEnd(SnapshotCatalog* catalog, EstimateService* service,
              const TcpOptions& options = {});

  /// Multi-dataset constructor: requests route by their "dataset"
  /// wire field against `datasets` (normally the same map the service
  /// was built on). `datasets` and `service` must outlive the
  /// front-end.
  TcpFrontEnd(DatasetCatalog* datasets, EstimateService* service,
              const TcpOptions& options = {});

  TcpFrontEnd(const TcpFrontEnd&) = delete;
  TcpFrontEnd& operator=(const TcpFrontEnd&) = delete;

  /// Equivalent to Stop().
  ~TcpFrontEnd();

  /// Binds 127.0.0.1:port, listens, and spawns the worker loops.
  Status Start();

  /// The bound port (the kernel's pick when options.port was 0).
  /// Valid after a successful Start.
  uint16_t port() const { return port_; }

  /// Blocks until a client requests shutdown (or Stop is called), then
  /// tears the server down. The intended main-thread loop of a server
  /// binary.
  void WaitForShutdown();

  /// Stops accepting, disconnects open connections, joins the
  /// workers. Idempotent, callable from any non-worker thread.
  void Stop();

 private:
  struct Conn;
  struct Worker;

  /// One epoll worker loop: accept, read, dispatch, flush, repeat
  /// until Stop wakes it.
  void WorkerMain(Worker& worker);

  /// Drains the accept backlog into `worker`. Transient errno classes
  /// are counted and retried; only a dead listener ends accepting.
  void AcceptBurst(Worker& worker);

  /// Reads everything available, consumes complete lines into reply
  /// slots, and enforces max_line_bytes. False = close the connection.
  bool ReadConn(Worker& worker, Conn& conn);

  /// Dispatches one request line: sync ops fill the slot immediately,
  /// estimates leave a pending future.
  void DispatchLine(Worker& worker, Conn& conn, std::string_view line);

  /// Releases completed reply slots in request order into the write
  /// backlog and flushes it. False = close the connection.
  bool PumpConn(Worker& worker, Conn& conn);

  /// Sends the write backlog until done or EAGAIN (arming EPOLLOUT).
  /// False = peer error, close the connection.
  bool FlushConn(Worker& worker, Conn& conn);

  void CloseConn(Worker& worker, Conn& conn);

  /// Resolves a request's dataset catalog; nullptr = unknown dataset.
  SnapshotCatalog* CatalogFor(std::string_view dataset) const;

  /// The rebuild source configured for `dataset` (empty() when none).
  const RebuildSource& RebuildFor(std::string_view dataset) const;

  std::string HandleExplain(const WireRequest& request);
  std::string HandleMetrics(const WireRequest& request);
  std::string HandleStats(const WireRequest& request);
  std::string HandleRecent(const WireRequest& request);
  std::string HandleSwap(const WireRequest& request);
  std::string HandleHealth(const WireRequest& request);
  std::string HandleFailpoint(const WireRequest& request);

  /// Flags the stop and wakes WaitForShutdown.
  void RequestStop();

  /// The single-catalog constructor's wrapper; null when the caller
  /// provided a DatasetCatalog.
  std::unique_ptr<DatasetCatalog> owned_datasets_;
  /// Set once, during construction.
  DatasetCatalog* datasets_;
  EstimateService* const service_;
  const TcpOptions options_;
  /// options_ normalized: dataset_rebuilds plus the top-level default
  /// source folded in under "default".
  std::map<std::string, RebuildSource> rebuilds_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> worker_threads_;
  /// Set by Stop() before the eventfd wakeups; workers exit on it.
  std::atomic<bool> shutting_down_{false};

  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  /// Serializes teardown: a concurrent second Stop blocks until the
  /// first finishes joining, then returns.
  std::mutex teardown_mutex_;
  bool stopped_ = false;
};

}  // namespace twig::serve

#endif  // TWIG_SERVE_TCP_H_
