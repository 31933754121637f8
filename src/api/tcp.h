// TCP binding for the API server: a loopback HTTP/1.1 listener so the
// feed can actually be curl'd — and polled by many consumers at once.
//
// Serving model (the paper's operational feed answers bulk queries from
// concurrent consumers): a non-blocking epoll readiness loop.
//
//   - `num_event_loops` event-loop threads own all sockets. Each loop
//     runs epoll over the shared listening socket (EPOLLEXCLUSIVE where
//     available) plus its accepted connections, registered edge-triggered
//     (EPOLLIN|EPOLLOUT|EPOLLRDHUP|EPOLLET). A connection is a small
//     state machine: drain reads until EAGAIN -> parse a complete
//     Content-Length-framed request -> dispatch -> buffer the response
//     and write until EAGAIN, resuming on the EPOLLOUT edge. An idle
//     keep-alive connection costs its Conn struct — a few hundred bytes —
//     not a parked thread;
//   - the fixed pool of `num_workers` worker threads does request
//     processing only, never connection waiting: parsed requests travel
//     over a pipeline::BoundedBuffer (the same MPMC queue that backs the
//     capture mbuffer), handlers run there, and the serialized response
//     comes back to the owning loop through an eventfd-signalled
//     completion queue;
//   - per-connection deadlines are enforced by a loop-side sweep instead
//     of SO_RCVTIMEO/SO_SNDTIMEO: a client silent mid-request longer than
//     `read_timeout` gets 408, an idle keep-alive connection is closed
//     quietly, and a client that stops draining its response for
//     `write_timeout` is dropped — one slow or silent client (slow-loris)
//     costs a Conn struct, never a thread;
//   - HTTP/1.1 keep-alive: a client that sends "Connection: keep-alive"
//     gets further requests served on the same connection (Content-Length
//     framing; pipelined bytes carry over), bounded by
//     `max_requests_per_connection`; without the header the connection
//     closes after one response, exactly like the original serial server;
//   - streaming responses (HttpResponse::body_stream — the bulk-export
//     path) go out Transfer-Encoding: chunked, pulled loop-side one piece
//     at a time and only while the buffered output sits below
//     `stream_watermark_bytes`: a slow reader pauses the store iteration
//     instead of materializing the export, and an aborted connection
//     frees the stream's cursor immediately;
//   - `stop()` drains gracefully: accepting stops first, the dispatch
//     queue closes and workers finish in-flight handlers (requests popped
//     after stop answer 503/Connection: close), then the loops flush
//     buffered responses — bounded by `write_timeout` — and close every
//     connection before joining.
//
// Handlers run on worker threads, so the ApiServer passed in must be safe
// for concurrent const access (it is: `handle` is const over const feed
// state). Mutating the feed while serving requires external
// synchronization — the pipeline publishes before the listener starts.
//
// Observability (registered via instrument(), rendered by /v1/metrics):
//   exiot_api_connections_total            accepted connections
//   exiot_api_connections_inflight         gauge, connections currently open
//   exiot_api_requests_inflight            gauge, dispatched to a worker,
//                                          response not yet handed back
//   exiot_api_export_streams_inflight      gauge, chunked streams mid-flight
//   exiot_api_event_loops                  gauge, loops while running
//   exiot_api_requests_total{class=...}    responses by status class
//   exiot_api_request_latency_seconds      handle+serialize wall latency
//   exiot_api_timeouts_total               read/write deadline expiries
//   exiot_api_oversize_total               413 rejections (> max bytes)
//   exiot_api_rejected_total               503s: queue full or draining
//   exiot_buffer_*{buffer="api"}           dispatch-queue depth/blocking
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/server.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "pipeline/buffer.h"

namespace exiot::api {

struct TcpListenerOptions {
  /// Worker threads serving parsed requests. 1 reproduces the serial
  /// server's throughput (but still enforces deadlines and keep-alive).
  int num_workers = 4;
  /// Event-loop threads owning the sockets. 1 is plenty for loopback
  /// serving; more loops shard epoll wakeups across cores.
  int num_event_loops = 1;
  /// Per-connection deadlines, enforced by the loops' timeout sweep. A
  /// client that stays silent longer gets 408 (mid-request) or a quiet
  /// close (idle keep-alive); one that stops draining its response for
  /// `write_timeout` is dropped.
  std::chrono::milliseconds read_timeout{5000};
  std::chrono::milliseconds write_timeout{5000};
  /// Requests larger than this answer 413 Payload Too Large.
  std::size_t max_request_bytes = 1 << 20;
  /// Parsed requests waiting for a worker; beyond this the loop answers
  /// 503 immediately instead of queueing unbounded.
  std::size_t queue_capacity = 128;
  /// Keep-alive bound: after this many requests the connection closes.
  std::size_t max_requests_per_connection = 100;
  /// Chunked-streaming backpressure: the loop pulls the next body piece
  /// only while a connection's buffered output is below this, so a slow
  /// reader pauses the export walk instead of buffering it.
  std::size_t stream_watermark_bytes = 64 * 1024;
  /// When nonzero, clamps each accepted socket's kernel send buffer
  /// (SO_SNDBUF) to bound per-connection kernel memory at high
  /// connection counts — and, with autotuning off, makes backpressure
  /// from a stalled reader deterministic. 0 keeps the kernel default.
  std::size_t sndbuf_bytes = 0;
};

class TcpListener {
 public:
  explicit TcpListener(const ApiServer& server, TcpListenerOptions options = {});
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Registers the listener's counters/gauges/histogram (and the dispatch
  /// queue's buffer metrics) in `registry`. Call before start(); without
  /// it the listener records into the scratch registry.
  void instrument(obs::MetricsRegistry& registry);

  /// Registers the worker pool ("api:<i>") and the event loops
  /// ("apiloop:<i>") with a stall watchdog. Call before start(); threads
  /// blocked waiting for work are idle, not stalled.
  void set_watchdog(obs::Watchdog* watchdog) { watchdog_ = watchdog; }

  /// Binds 127.0.0.1:`port` (0 = ephemeral), starts the event loops and
  /// the worker pool. Returns the bound port. Restartable after stop().
  Result<std::uint16_t> start(std::uint16_t port = 0);

  /// Graceful drain: stops accepting, finishes in-flight requests,
  /// flushes buffered responses (bounded by write_timeout), closes every
  /// connection, joins all threads.
  void stop();

  std::uint16_t port() const { return port_; }

 private:
  /// One connection's state machine, owned by exactly one event loop.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string in;   // Bytes read; carries pipelined leftovers.
    std::string out;  // Serialized response bytes pending write.
    /// Active chunked body producer; pulled as `out` drains below the
    /// watermark. Freed on exhaustion or when the connection dies.
    std::shared_ptr<HttpResponse::BodyStream> stream;
    bool response_pending = false;  // Head installed, body not finished.
    bool busy = false;         // Request dispatched, awaiting completion.
    bool keep_after = false;   // Keep-alive once the response finishes.
    bool close_after = false;  // Close once `out` drains.
    bool saw_eof = false;      // Peer half-closed its write side.
    std::size_t served = 0;    // Completed requests (keep-alive bound).
    std::chrono::steady_clock::time_point last_activity{};
    std::chrono::steady_clock::time_point write_start{};  // Stall sweep.
  };

  /// A parsed request travelling to the worker pool.
  struct Job {
    std::size_t loop = 0;      // Owning event loop (completion routing).
    std::uint64_t conn_id = 0;
    HttpRequest request;
    bool allow_keep = false;   // served + 1 < max_requests_per_connection.
  };

  /// A finished response travelling back to the owning loop.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string wire;  // Full response, or chunked head when streaming.
    std::shared_ptr<HttpResponse::BodyStream> stream;
    bool keep = false;
  };

  struct EventLoop {
    std::size_t index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: completions posted / stop requested.
    std::thread thread;
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::mutex mutex;  // Guards `completions` (workers post, loop drains).
    std::vector<Completion> completions;
    bool listen_registered = false;
  };

  void loop_run(std::size_t index);
  void worker_loop(std::size_t index);
  void post_completion(std::size_t loop_index, Completion done);
  void wake(EventLoop& loop);
  void install_completions(EventLoop& loop);
  void accept_ready(EventLoop& loop);
  void on_readable(EventLoop& loop, std::uint64_t id);
  /// Parses and dispatches the next buffered request when the connection
  /// is quiet (no request in flight, no response pending); answers 413 /
  /// 400 / 503 loop-side and handles EOF.
  void try_process(EventLoop& loop, Conn& conn);
  /// Refills `out` from the stream (below the watermark) and writes until
  /// EAGAIN; finishes or closes the connection as the state dictates.
  void pump(EventLoop& loop, Conn& conn);
  /// The response's last byte is buffered & written: close or rearm.
  void finish_response(EventLoop& loop, Conn& conn);
  /// Queues a loop-side response (408/413/400/503) and closes after it.
  void respond_and_close(EventLoop& loop, Conn& conn, HttpResponse response);
  void close_conn(EventLoop& loop, std::uint64_t id);
  void sweep_timeouts(EventLoop& loop);

  const ApiServer& server_;
  TcpListenerOptions options_;
  obs::Watchdog* watchdog_ = nullptr;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> workers_;
  pipeline::BoundedBuffer<Job> queue_;
  std::atomic<std::uint64_t> next_conn_id_{1};

  obs::Counter* connections_c_;
  obs::Gauge* inflight_g_;
  obs::Gauge* requests_inflight_g_;
  obs::Gauge* streams_g_;
  obs::Gauge* loops_g_;
  obs::Counter* class_c_[4];  // 2xx, 3xx, 4xx, 5xx.
  obs::Histogram* latency_h_;
  obs::Counter* timeouts_c_;
  obs::Counter* oversize_c_;
  obs::Counter* rejected_c_;
};

}  // namespace exiot::api
