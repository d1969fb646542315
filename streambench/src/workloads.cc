// The three workloads. Each is a closed loop driven by one thread: build a
// batch (untimed), hand it over and wait (timed), check every window the
// batch closed against the reference (untimed), and every few batches run
// the active-table report (timed). See ../README.md.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "clicks.h"
#include "common/time.h"
#include "engine/database.h"
#include "harness.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "sql/parser.h"

namespace streambench {
namespace {

using streamrel::Result;
using streamrel::Status;
using streamrel::Value;
namespace engine = streamrel::engine;
namespace net = streamrel::net;

constexpr int64_t kRpcMicros = 10'000'000;
/// How long the push reader blocks in NextPush before it looks at its stop
/// flag. A push that arrives wakes it at once.
constexpr int64_t kPushPollMicros = 50'000;
constexpr int kWarmupBatches = 360;  // six logical minutes: every window full
constexpr int kProbeBatches = 240;   // traced runs: batches in the probe phase
constexpr int kTraceBlock = 32;      // traced runs: batches per on/off block
/// The dashboard report reads the last kReportMinutes closed minutes (an
/// index range on stime), so its cost does not grow with the table.
constexpr int64_t kReportMinutes = 10;
/// The dashboard is read by this many viewers each round. The first read
/// after an ingest call finds the report's code and pages evicted by the
/// CQs' hash tables; alone, its time swung from 30 to 80 us with the
/// host's memory contention, and its median spread 0.16-0.48 between
/// runs. The median over four readers spread 0.07-0.09.
constexpr int kDashboardViewers = 4;
/// Tuples the reference keeps: the report's span plus one window.
constexpr int64_t kRetainUs = (kReportMinutes + 1) * kMinute;
/// Ingest throughput is the median over blocks of this many timed batches
/// (one logical minute, so every block closes the same windows): the
/// median shrugs off the host's bursts, which a whole-run mean does not.
constexpr int kBlockBatches = 60;
/// How often the timed loop re-picks its CPUs (between rounds, untimed).
constexpr int64_t kRepinNs = 1'000'000'000;
/// CPUs wire_subscribe runs on: its client, server and push-reader
/// threads share them. On one CPU every hand-off between them is a local
/// context switch; across vCPUs each wake-up waits for the host to run the
/// other vCPU, and with the host busy two CPUs ingested 35% less than one
/// and spread 1.0 (IQR / median) against 0.24.
constexpr int kWireCpus = 1;

enum class Kind { kDashboard, kArchive, kWire };
enum class Path { kColumns, kRows, kWire };

/// A subscription whose every window is checked against the reference.
struct Watch {
  RefQuery q;
  std::string object;  // CQ or derived stream subscribed to
  bool over_wire = false;
  int count_col = -1;  // column holding count(*), for the property checks
  int64_t next_close = 0;
  int64_t windows = 0;
  int64_t rows = 0;
  int64_t count_total = 0;
};

struct Delivery {
  size_t watch = 0;
  int64_t close = 0;
  int64_t at_ns = 0;
  std::vector<Row> rows;
};

RefQuery Query(const std::string& name, int64_t visible, int64_t advance,
               RefQuery::Key key, RefQuery::Out out,
               const std::string& like = "", int top_k = 0) {
  RefQuery q;
  q.name = name;
  q.visible = visible;
  q.advance = advance;
  q.key = key;
  q.out = out;
  q.url_like = like;
  q.top_k = top_k;
  return q;
}

std::string TsLiteral(int64_t micros) {
  return "timestamp '" + streamrel::FormatTimestampMicros(micros) + "'";
}

size_t FrameBytes(const std::string& body) {
  return net::kFrameHeaderBytes + net::kFramePrefixBytes + body.size();
}

/// archive_report archives every row, and the engine keeps its WAL and
/// heap in memory: an eighth of the rows per logical second keeps a run's
/// footprint to a few hundred MB while every window still closes on time.
ClickShape ShapeFor(const std::string& workload) {
  ClickShape shape;
  if (workload == "archive_report") shape.mean_step_us = 8000;
  return shape;
}

class Bench {
 public:
  explicit Bench(const Options& options)
      : opt_(options),
        gen_(options.seed, ShapeFor(options.workload)),
        ref_(&gen_) {
    if (opt_.workload == "dashboard") {
      kind_ = Kind::kDashboard;
      path_ = Path::kColumns;
      report_every_ = 2;
      report_viewers_ = kDashboardViewers;
    } else if (opt_.workload == "archive_report") {
      kind_ = Kind::kArchive;
      path_ = Path::kRows;
      report_every_ = 1;
      traced_batches_per_s_ = 120;
      untraced_batches_per_s_ = 300;
    } else if (opt_.workload == "wire_subscribe") {
      kind_ = Kind::kWire;
      path_ = Path::kWire;
      traced_batches_per_s_ = 200;
    } else {
      Die("unknown workload '" + opt_.workload + "'");
    }
    main_thread_ = std::this_thread::get_id();
  }

  ~Bench() {
    StopPushReader();
    ingest_client_.Close();
    sub_client_.Close();
    if (server_) server_->Stop();
  }

  int Run();

 private:
  // --- set-up ---------------------------------------------------------------
  void Setup();
  void Sql(const std::string& sql);
  void Subscribe(const std::string& object, RefQuery q, int count_col,
                 bool over_wire);
  void StartServer();
  /// One request worker: a single producer connection keeps only one busy
  /// (the server assigns connections to workers by id). With the event
  /// loop, the benchmark's thread and wire_subscribe's push reader that is
  /// four threads, so fewer than four CPUs get inline dispatch.
  int ServerWorkers() const { return std::clamp(UsableCpus() - 3, 0, 1); }
  void ReadPushes();
  void StopPushReader();

  // --- the loop -------------------------------------------------------------
  void Step(Path path, bool timed, bool probe = false);
  void ProbeProtocol();
  void IngestBatch(Path path, bool timed);
  void CheckDeliveries(int64_t call_start_ns, bool timed);
  void Report(bool timed);
  void CheckReport(int64_t last_close, const std::vector<Row>& rows);
  std::string ReportSql(int64_t last_close) const;
  void Fail(const std::string& what) {
    if (failure_.empty()) failure_ = what;
  }

  // --- after the loop -------------------------------------------------------
  void FinalChecks();
  int64_t SelectCount(const std::string& sql);
  std::vector<Metric> EndToEnd();
  std::vector<Metric> PerLayer();
  void Probe();
  void CheckThreads(const char* where);

  Options opt_;
  Kind kind_ = Kind::kDashboard;
  Path path_ = Path::kColumns;
  int report_every_ = 8;  // batches per report: one round of the loop
  /// Readers of the report each round, one after another, each timed and
  /// checked on its own.
  int report_viewers_ = 1;
  /// Traced runs: batches per --seconds second, about a third of what
  /// this host ingests, so the traced run ends well inside its time.
  int traced_batches_per_s_ = 400;
  /// Untraced runs: 0 measures for --seconds of wall time; otherwise a
  /// fixed number of batches per --seconds second. archive_report keeps
  /// every archived row resident, so only a fixed amount of work gives a
  /// peak RSS that does not move with the throughput.
  int untraced_batches_per_s_ = 0;
  std::thread::id main_thread_;
  Tracer tracer_;
  ClickGen gen_;
  Reference ref_;
  engine::Database db_;
  std::unique_ptr<net::Server> server_;
  net::Client ingest_client_;
  net::Client sub_client_;

  std::vector<Watch> watches_;
  /// Guards pending_ and the push reader's state: callbacks may run on a
  /// server worker (probe), pushes arrive on the reader thread.
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::vector<Delivery> pending_;
  // wire_subscribe: a thread of its own reads the subscriber connection
  // and timestamps each push as soon as it is decoded.
  std::thread push_reader_;
  std::atomic<bool> stop_reader_{false};
  int64_t pushes_owed_ = 0;      // by the batches sent so far
  int64_t pushes_received_ = 0;  // by the reader
  std::string reader_error_;
  std::vector<Click> clicks_;
  int64_t first_ts_ = INT64_MIN;
  int64_t max_ts_ = INT64_MIN;
  int64_t rows_total_ = 0;
  /// Generated rows per logical minute since the start (property checks).
  std::vector<int64_t> minute_rows_;
  std::string active_table_;
  int derived_watch_ = -1;  // the derived stream feeding the active table
  int64_t last_report_close_ = INT64_MIN;
  int64_t last_call_ns_ = 0;
  bool last_call_closed_ = false;  // the last batch closed some window
  Delivery sample_;  // a recent delivered window, for the push probe

  // Wire accounting.
  int64_t wire_request_bytes_ = 0;
  int64_t push_bytes_ = 0;
  int64_t push_rows_ = 0;

  // Timed-phase measurements.
  int64_t batches_ = 0;
  int64_t attempted_ = 0;
  /// Ingest time and rows of the current block of kBlockBatches timed
  /// batches, and the rate of every block completed so far.
  int64_t block_ns_ = 0;
  int64_t block_rows_ = 0;
  int block_batches_ = 0;
  std::vector<double> block_rows_per_s_;
  std::vector<double> freshness_us_;
  std::vector<double> report_us_;
  /// Per timed ingest call: ns per row, and whether tracing was on.
  std::vector<std::pair<double, bool>> call_ns_per_row_;
  int64_t setup_ns_ = 0;
  int64_t pin_ns_ = 0;  // the start-up CPU probe, left out of setup_ns_
  bool selftest_done_ = false;
  std::string failure_;

  // Probe-phase measurements (traced runs).
  std::vector<double> wire_absorb_us_, inproc_absorb_us_;
  std::vector<double> encode_samples_, decode_samples_;
  double ping_us_ = 0, parse_us_ = 0, scan_ns_per_row_ = 0, lookup_us_ = 0;
  double encode_ns_per_row_ = 0, decode_ns_per_row_ = 0,
         decode_push_ns_per_row_ = 0, probe_bytes_in_per_row_ = 0,
         probe_push_bytes_per_row_ = 0;
  engine::EngineStats stats_before_, stats_after_;
};

// ---------------------------------------------------------------------------
// Set-up.

void Bench::Sql(const std::string& sql) {
  if (kind_ == Kind::kWire) {
    wire_request_bytes_ += FrameBytes(net::EncodeQueryBody(sql));
    Check(ingest_client_.Query(sql, kRpcMicros).status(), sql);
  } else {
    Check(db_.Execute(sql).status(), sql);
  }
}

void Bench::Subscribe(const std::string& object, RefQuery q, int count_col,
                      bool over_wire) {
  Watch w;
  w.q = std::move(q);
  w.object = object;
  w.count_col = count_col;
  w.over_wire = over_wire;
  const size_t index = watches_.size();
  watches_.push_back(w);
  if (w.over_wire) {
    wire_request_bytes_ += FrameBytes(net::EncodeNameBody(object));
    Check(sub_client_.Subscribe(object, kRpcMicros), "subscribe " + object);
    return;
  }
  CheckResult(
      db_.Subscribe(object,
                    [this, index](int64_t close, const std::vector<Row>& rows) {
                      const int64_t at = NowNs();
                      const bool main =
                          std::this_thread::get_id() == main_thread_;
                      ScopedSpan span(main ? &tracer_ : nullptr,
                                      "subscriber.deliver");
                      std::lock_guard<std::mutex> lock(pending_mu_);
                      pending_.push_back({index, close, at, rows});
                      return Status::OK();
                    }),
      "subscribe " + object);
}

void Bench::StartServer() {
  net::ServerOptions so;
  so.worker_threads = ServerWorkers();
  server_ = std::make_unique<net::Server>(&db_, so);
  Check(server_->Start(), "server start");
  Check(ingest_client_.Connect("127.0.0.1", server_->port(), kRpcMicros),
        "connect");
}

void Bench::Setup() {
  using K = RefQuery::Key;
  using O = RefQuery::Out;
  if (kind_ == Kind::kWire) {
    StartServer();
    Check(sub_client_.Connect("127.0.0.1", server_->port(), kRpcMicros),
          "connect subscriber");
  }
  if (opt_.parallelism > 1) {
    Sql("SET PARALLELISM " + std::to_string(opt_.parallelism));
  }
  Sql("CREATE STREAM url_stream (url varchar(1024), "
      "atime timestamp CQTIME USER, client_ip varchar(50))");

  // Every workload: a per-minute total as a derived stream, persisted by a
  // channel into an indexed active table that the report reads.
  if (kind_ != Kind::kArchive) {
    Sql("CREATE STREAM minute_counts AS SELECT count(*) AS scnt, "
        "cq_close(*) AS stime FROM url_stream <VISIBLE '1 minute'>");
    Sql("CREATE TABLE minute_tbl (scnt bigint, stime timestamp)");
    Sql("CREATE INDEX minute_tbl_stime ON minute_tbl (stime)");
    Sql("CREATE CHANNEL minute_ch FROM minute_counts INTO minute_tbl APPEND");
    active_table_ = "minute_tbl";
  }

  if (kind_ == Kind::kDashboard) {
    struct Cq {
      const char* name;
      const char* sql;
      RefQuery q;
      int count_col;
    };
    const Cq cqs[] = {
        {"url_1m",
         "SELECT url, count(*) AS c FROM url_stream <VISIBLE '1 minute'> "
         "GROUP BY url",
         Query("url_1m", kMinute, kMinute, K::kUrl, O::kKeyCount), 1},
        {"top_url_5m",
         "SELECT url, count(*) AS c FROM url_stream "
         "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url "
         "ORDER BY c DESC LIMIT 10",
         Query("top_url_5m", 5 * kMinute, kMinute, K::kUrl, O::kKeyCount, "",
               10),
         1},
        {"ip_1m",
         "SELECT client_ip, count(*) AS c FROM url_stream "
         "<VISIBLE '1 minute'> GROUP BY client_ip",
         Query("ip_1m", kMinute, kMinute, K::kIp, O::kKeyCount), 1},
        {"total_1m",
         "SELECT count(*) AS c, min(atime) AS first_t, max(atime) AS last_t "
         "FROM url_stream <VISIBLE '1 minute'>",
         Query("total_1m", kMinute, kMinute, K::kNone, O::kCountMinMax), 0},
        {"total_2m",
         "SELECT count(*) AS c FROM url_stream "
         "<VISIBLE '2 minutes' ADVANCE '1 minute'>",
         Query("total_2m", 2 * kMinute, kMinute, K::kNone, O::kKeyCount), 0},
        {"page1_1m",
         "SELECT url, count(*) AS c FROM url_stream <VISIBLE '1 minute'> "
         "WHERE url LIKE '/page/1%' GROUP BY url",
         Query("page1_1m", kMinute, kMinute, K::kUrl, O::kKeyCount,
               "/page/1%"),
         1},
        {"page7_5m",
         "SELECT count(*) AS c FROM url_stream "
         "<VISIBLE '5 minutes' ADVANCE '1 minute'> WHERE url LIKE '%7'",
         Query("page7_5m", 5 * kMinute, kMinute, K::kNone, O::kKeyCount,
               "%7"),
         0},
        {"top_ip_5m",
         "SELECT client_ip, count(*) AS c FROM url_stream "
         "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY client_ip "
         "ORDER BY c DESC LIMIT 5",
         Query("top_ip_5m", 5 * kMinute, kMinute, K::kIp, O::kKeyCount, "",
               5),
         1},
    };
    for (const Cq& cq : cqs) {
      CheckResult(db_.CreateContinuousQuery(cq.name, cq.sql), cq.name);
      Subscribe(cq.name, cq.q, cq.count_col, false);
    }
  } else if (kind_ == Kind::kArchive) {
    // The raw archive: every row through a channel into a heap table.
    Sql("CREATE TABLE url_log (url varchar(1024), atime timestamp, "
        "client_ip varchar(50))");
    Sql("CREATE CHANNEL raw_ch FROM url_stream INTO url_log APPEND");
    // Examples 3-4: per-URL 5-minute counts every minute, archived.
    Sql("CREATE STREAM url_counts_s AS SELECT url, count(*) AS scnt, "
        "cq_close(*) AS stime FROM url_stream "
        "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url");
    Sql("CREATE TABLE url_counts (url varchar(1024), scnt bigint, "
        "stime timestamp)");
    Sql("CREATE INDEX url_counts_stime ON url_counts (stime)");
    Sql("CREATE CHANNEL counts_ch FROM url_counts_s INTO url_counts APPEND");
    active_table_ = "url_counts";
    // Example 5: this window's total against each URL's count one minute
    // earlier, read window-consistently from the active table.
    CheckResult(
        db_.CreateContinuousQuery(
            "compare",
            "SELECT c.scnt, h.scnt, c.stime FROM "
            "(SELECT sum(scnt) AS scnt, cq_close(*) AS stime "
            " FROM url_counts_s <SLICES 1 WINDOWS>) c, url_counts h "
            "WHERE c.stime - interval '1 minute' = h.stime"),
        "compare");
    CheckResult(db_.CreateContinuousQuery(
                    "minute_total",
                    "SELECT count(*) AS c FROM url_stream "
                    "<VISIBLE '1 minute'>"),
                "minute_total");
    // A non-aggregate CQ: generic strategy, row-buffered windows.
    CheckResult(db_.CreateContinuousQuery(
                    "rare_clicks",
                    "SELECT url, atime, client_ip FROM url_stream "
                    "<VISIBLE '1 minute'> WHERE url LIKE '/page/99%'"),
                "rare_clicks");
    Subscribe("url_counts_s",
              Query("url_counts_s", 5 * kMinute, kMinute, K::kUrl,
                    O::kKeyCountClose),
              1, false);
    derived_watch_ = 0;
    Subscribe("compare",
              Query("compare", 5 * kMinute, kMinute, K::kUrl,
                    O::kHistoryJoin),
              -1, false);
    Subscribe("minute_total",
              Query("minute_total", kMinute, kMinute, K::kNone,
                    O::kKeyCount),
              0, false);
    Subscribe("rare_clicks",
              Query("rare_clicks", kMinute, kMinute, K::kNone, O::kRawRows,
                    "/page/99%"),
              -1, false);
  } else {
    Sql("CREATE STREAM top_urls AS SELECT url, count(*) AS c FROM url_stream "
        "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url "
        "ORDER BY c DESC LIMIT 10");
    Sql("CREATE STREAM minute_total AS SELECT count(*) AS c, "
        "min(atime) AS first_t, max(atime) AS last_t FROM url_stream "
        "<VISIBLE '1 minute'>");
    Subscribe("top_urls",
              Query("top_urls", 5 * kMinute, kMinute, K::kUrl, O::kKeyCount,
                    "", 10),
              1, true);
    Subscribe("minute_total",
              Query("minute_total", kMinute, kMinute, K::kNone,
                    O::kCountMinMax),
              0, true);
  }
  if (kind_ != Kind::kArchive) {
    // The derived stream behind the active table, checked in-process.
    Subscribe("minute_counts",
              Query("minute_counts", kMinute, kMinute, K::kNone,
                    O::kKeyCountClose),
              0, false);
    derived_watch_ = static_cast<int>(watches_.size()) - 1;
  }
  // The reader reads watches_, which is complete from here on.
  if (kind_ == Kind::kWire) {
    push_reader_ = std::thread(&Bench::ReadPushes, this);
  }
}

void Bench::ReadPushes() {
  // NextPush needs a nonzero timeout even for a push that already arrived
  // (see CHANGES.md, FOUND on Client::ReadFrame); a timeout keeps any
  // partly read frame buffered, so polling loses nothing.
  while (!stop_reader_.load()) {
    Result<net::Push> push = sub_client_.NextPush(kPushPollMicros);
    const int64_t at = NowNs();
    if (!push.ok()) {
      if (push.status().code() == streamrel::StatusCode::kUnavailable &&
          sub_client_.connected()) {
        continue;  // nothing arrived within the poll
      }
      std::lock_guard<std::mutex> lock(pending_mu_);
      reader_error_ = "next push: " + push.status().ToString();
      pending_cv_.notify_all();
      return;
    }
    size_t index = watches_.size();
    for (size_t k = 0; k < watches_.size(); ++k) {
      if (watches_[k].over_wire && watches_[k].object == push->source) {
        index = k;
      }
    }
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (index == watches_.size()) {
      reader_error_ = "push for " + push->source;
      pending_cv_.notify_all();
      return;
    }
    if (opt_.trace) {
      net::StreamRowsBody body{push->source, push->close, push->rows};
      push_bytes_ += FrameBytes(net::EncodeStreamRowsBody(body));
      push_rows_ += static_cast<int64_t>(push->rows.size());
    }
    pending_.push_back({index, push->close, at, std::move(push->rows)});
    ++pushes_received_;
    pending_cv_.notify_all();
  }
}

void Bench::StopPushReader() {
  stop_reader_.store(true);
  if (push_reader_.joinable()) push_reader_.join();
}

// ---------------------------------------------------------------------------
// The loop.

void Bench::IngestBatch(Path path, bool timed) {
  const int64_t rows = static_cast<int64_t>(clicks_.size());
  int64_t start = 0, end = 0;
  switch (path) {
    case Path::kColumns: {
      streamrel::exec::ColumnBatch batch = gen_.ToColumns(clicks_);
      ScopedSpan span(&tracer_, "engine.Ingest");
      tracer_.SetArg(span.id(), rows);
      start = NowNs();
      Check(db_.Ingest("url_stream", std::move(batch)), "ingest");
      end = NowNs();
      break;
    }
    case Path::kRows: {
      const std::vector<Row> batch = gen_.ToRows(clicks_);
      ScopedSpan span(&tracer_, "engine.Ingest");
      tracer_.SetArg(span.id(), rows);
      start = NowNs();
      Check(db_.Ingest("url_stream", batch), "ingest");
      end = NowNs();
      break;
    }
    case Path::kWire: {
      const std::vector<Row> batch = gen_.ToRows(clicks_);
      net::IngestBatchRequest req;
      req.stream = "url_stream";
      req.rows = batch;
      wire_request_bytes_ += FrameBytes(net::EncodeIngestBody(req));
      {
        ScopedSpan span(&tracer_, "net.Client.IngestBatch");
        tracer_.SetArg(span.id(), rows);
        start = NowNs();
        Check(ingest_client_.IngestBatch("url_stream", batch, INT64_MIN,
                                         kRpcMicros),
              "wire ingest");
        end = NowNs();
      }
      break;
    }
  }
  // Wait for the pushes this batch owes the wire subscriber; the reader
  // thread has timestamped each one as it decoded it.
  int64_t owed = 0;
  for (const Watch& w : watches_) {
    if (!w.over_wire) continue;
    for (int64_t c = w.next_close; c <= max_ts_; c += w.q.advance) ++owed;
  }
  if (owed > 0) {
    ScopedSpan span(&tracer_, "wait.pushes");
    std::unique_lock<std::mutex> lock(pending_mu_);
    pushes_owed_ += owed;
    const bool done = pending_cv_.wait_for(
        lock, std::chrono::microseconds(kRpcMicros), [this] {
          return pushes_received_ >= pushes_owed_ || !reader_error_.empty();
        });
    if (!reader_error_.empty()) Die(reader_error_);
    if (!done) Die("timed out waiting for pushes");
  }
  ++attempted_;
  last_call_ns_ = end - start;
  if (timed) {
    block_ns_ += end - start;
    block_rows_ += rows;
    if (++block_batches_ == kBlockBatches) {
      block_rows_per_s_.push_back(static_cast<double>(block_rows_) * 1e9 /
                                  static_cast<double>(block_ns_));
      block_ns_ = block_rows_ = block_batches_ = 0;
    }
    call_ns_per_row_.push_back(
        {static_cast<double>(end - start) / static_cast<double>(rows),
         tracer_.enabled()});
  }
  CheckDeliveries(start, timed);
}

void Bench::Step(Path path, bool timed, bool probe) {
  clicks_.clear();
  gen_.NextBatch(&clicks_);
  if (clicks_.empty()) Die("generator produced an empty batch");
  if (probe) ProbeProtocol();
  if (first_ts_ == INT64_MIN) {
    first_ts_ = clicks_.front().ts;
    for (Watch& w : watches_) {
      w.next_close = (first_ts_ / w.q.advance + 1) * w.q.advance;
    }
  }
  max_ts_ = clicks_.back().ts;
  rows_total_ += static_cast<int64_t>(clicks_.size());
  for (const Click& c : clicks_) {
    const size_t minute = static_cast<size_t>((c.ts - first_ts_) / kMinute);
    if (minute_rows_.size() <= minute) minute_rows_.resize(minute + 1, 0);
    ++minute_rows_[minute];
  }
  ref_.Add(clicks_);
  last_call_closed_ = false;
  for (const Watch& w : watches_) last_call_closed_ |= w.next_close <= max_ts_;
  IngestBatch(path, timed);
  ref_.Forget(max_ts_ - kRetainUs);
  ++batches_;
}

void Bench::CheckDeliveries(int64_t call_start_ns, bool timed) {
  std::vector<Delivery> got;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    got.swap(pending_);
  }
  ScopedSpan span(&tracer_, "reference.check");
  for (Delivery& d : got) {
    Watch& w = watches_[d.watch];
    if (d.close != w.next_close) {
      Fail(w.object + ": window " + std::to_string(d.close) +
           " delivered, expected " + std::to_string(w.next_close));
      continue;
    }
    const std::string diff = ref_.Compare(w.q, d.close, d.rows);
    if (!diff.empty()) Fail(diff);
    if (!selftest_done_ && w.count_col >= 0 && !d.rows.empty() && timed) {
      // The check must be able to fail: perturb one delivered count.
      std::vector<Row> bad = d.rows;
      Value& cell = bad[0][w.count_col];
      cell = Value::Int64(cell.AsInt64() + 1);
      if (ref_.Compare(w.q, d.close, bad).empty()) {
        Fail("self-test: a perturbed count passed the reference check");
      }
      selftest_done_ = true;
    }
    w.next_close += w.q.advance;
    ++w.windows;
    w.rows += static_cast<int64_t>(d.rows.size());
    if (w.count_col >= 0) {
      for (const Row& row : d.rows) w.count_total += row[w.count_col].AsInt64();
    }
    // Freshness is taken where this workload's subscriber sits: over the
    // wire for wire_subscribe, in-process otherwise.
    if (timed && w.over_wire == (kind_ == Kind::kWire)) {
      freshness_us_.push_back(static_cast<double>(d.at_ns - call_start_ns) /
                              1000.0);
    }
    if (d.watch == 0 && !d.rows.empty() && tracer_.enabled()) {
      sample_ = std::move(d);
    }
  }
  for (const Watch& w : watches_) {
    if (w.next_close <= max_ts_) {
      Fail(w.object + ": window " + std::to_string(w.next_close) +
           " was never delivered");
    }
  }
}

std::string Bench::ReportSql(int64_t last_close) const {
  if (kind_ == Kind::kArchive) {
    // Example 4: the ten busiest URLs of the latest five minutes.
    return "SELECT url, scnt FROM url_counts WHERE stime = " +
           TsLiteral(last_close) + " ORDER BY scnt DESC LIMIT 10";
  }
  return "SELECT count(*), sum(scnt), max(stime) FROM minute_tbl "
         "WHERE stime > " +
         TsLiteral(last_close - kReportMinutes * kMinute);
}

void Bench::Report(bool timed) {
  const Watch& derived = watches_[derived_watch_];
  const int64_t last_close = derived.next_close - derived.q.advance;
  if (derived.windows == 0) return;
  const std::string sql = ReportSql(last_close);
  for (int viewer = 0; viewer < report_viewers_; ++viewer) {
    std::vector<Row> rows;
    int64_t start = 0, end = 0;
    if (kind_ == Kind::kWire) {
      wire_request_bytes_ += FrameBytes(net::EncodeQueryBody(sql));
      ScopedSpan span(&tracer_, "net.Client.Query");
      start = NowNs();
      auto result = ingest_client_.Query(sql, kRpcMicros);
      end = NowNs();
      Check(result.status(), "report");
      rows = std::move(result->rows);
    } else {
      ScopedSpan span(&tracer_, "engine.Execute");
      start = NowNs();
      auto result = db_.Execute(sql);
      end = NowNs();
      Check(result.status(), "report");
      rows = std::move(result->rows);
    }
    ++attempted_;
    if (timed) {
      report_us_.push_back(static_cast<double>(end - start) / 1000.0);
    }
    CheckReport(last_close, rows);
  }
  last_report_close_ = last_close;
}

void Bench::CheckReport(int64_t last_close, const std::vector<Row>& rows) {
  if (kind_ == Kind::kArchive) {
    const std::string diff = ref_.Compare(
        Query("example4_report", 5 * kMinute, kMinute, RefQuery::Key::kUrl,
              RefQuery::Out::kKeyCount, "", 10),
        last_close, rows);
    if (!diff.empty()) Fail("report " + diff);
    return;
  }
  // One row per closed minute in the span; tumbling windows partition
  // time, so their counts add up to every row of the span.
  const Watch& derived = watches_[derived_watch_];
  const int64_t from = last_close - kReportMinutes * kMinute;
  const int64_t windows = std::min<int64_t>(derived.windows, kReportMinutes);
  const std::string want = "i" + std::to_string(windows) + "|i" +
                           std::to_string(ref_.CountBetween(from, last_close)) +
                           "|t" + std::to_string(last_close);
  if (rows.size() != 1 || CanonRow(rows[0]) != want) {
    Fail("report: got " + (rows.empty() ? "nothing" : CanonRow(rows[0])) +
         ", want " + want);
  }
}

// ---------------------------------------------------------------------------
// After the loop.

int64_t Bench::SelectCount(const std::string& sql) {
  auto result = CheckResult(db_.Execute(sql), sql);
  if (result.rows.size() != 1 || result.rows[0].empty() ||
      result.rows[0][0].type() != streamrel::DataType::kInt64) {
    Fail(sql + ": not a single count");
    return -1;
  }
  return result.rows[0][0].AsInt64();
}

void Bench::CheckThreads(const char* where) {
  const int threads = CurrentThreads();
  if (threads > UsableCpus()) {
    Fail(std::string(where) + ": " + std::to_string(threads) +
         " threads on " + std::to_string(UsableCpus()) + " CPUs");
  }
}

void Bench::FinalChecks() {
  // Admission: every pushed row admitted, none shed or quarantined.
  const auto oc = db_.runtime()->overload_counters("url_stream");
  if (oc.rows_admitted != rows_total_ || oc.rows_shed != 0 ||
      oc.rows_quarantined != 0) {
    Fail("admission: admitted " + std::to_string(oc.rows_admitted) + " of " +
         std::to_string(rows_total_) + ", shed " +
         std::to_string(oc.rows_shed) + ", quarantined " +
         std::to_string(oc.rows_quarantined));
  }
  // Windows delivered equal the windows the reference expects: one per
  // advance from the first close after the first row to the last row.
  int64_t delivered = 0, expected = 0;
  for (const Watch& w : watches_) {
    const int64_t first = (first_ts_ / w.q.advance + 1) * w.q.advance;
    const int64_t last = (max_ts_ / w.q.advance) * w.q.advance;
    expected += last >= first ? (last - first) / w.q.advance + 1 : 0;
    delivered += w.windows;
  }
  if (delivered != expected) {
    Fail("windows_delivered " + std::to_string(delivered) + " != reference " +
         std::to_string(expected));
  }
  // The engine's own window counters agree.
  int64_t engine_windows = 0;
  for (const auto& m : stats_after_.metrics) {
    if (m.scope != "cq" || m.metric != "windows_closed") continue;
    for (const Watch& w : watches_) {
      // A derived stream runs as the engine CQ "$derived$<name>".
      if (m.name == w.object || m.name == "$derived$" + w.object) {
        engine_windows += m.value;
      }
    }
  }
  if (engine_windows != delivered) {
    Fail("engine windows_closed " + std::to_string(engine_windows) +
         " != delivered " + std::to_string(delivered));
  }
  // Rows with ts before the last one-minute close, and per-minute slices.
  const Watch& derived = watches_[derived_watch_];
  const int64_t closes = derived.windows;  // one-minute advance
  int64_t before_last_close = 0, five_fold = 0;
  const int64_t minutes = static_cast<int64_t>(minute_rows_.size());
  for (int64_t k = 0; k < closes && k < minutes; ++k) {
    before_last_close += minute_rows_[k];
    five_fold += minute_rows_[k] * std::min<int64_t>(5, closes - k);
  }
  // The active table holds exactly the delivered window rows, which is
  // what the channel says it persisted.
  const int64_t table_rows =
      SelectCount("SELECT count(*) FROM " + active_table_);
  int64_t persisted = 0;
  for (const auto& m : stats_after_.metrics) {
    if (m.scope == "channel" && m.metric == "rows_persisted" &&
        m.name != "raw_ch") {
      persisted += m.value;
    }
  }
  if (table_rows != derived.rows || persisted != table_rows) {
    Fail("active table " + std::to_string(table_rows) + " rows, delivered " +
         std::to_string(derived.rows) + ", channel persisted " +
         std::to_string(persisted));
  }
  if (kind_ == Kind::kArchive) {
    // Every interior row is counted in exactly five 5-minute windows.
    auto sum = CheckResult(db_.Execute("SELECT sum(scnt) FROM url_counts"),
                           "sum");
    if (sum.rows.size() != 1 || CanonRow(sum.rows[0]) !=
                                    "i" + std::to_string(five_fold)) {
      Fail("5-minute counts add to " +
           (sum.rows.empty() ? "nothing" : CanonRow(sum.rows[0])) +
           ", want i" + std::to_string(five_fold));
    }
    if (derived.count_total != five_fold) {
      Fail("delivered 5-minute counts add to " +
           std::to_string(derived.count_total));
    }
    // Tumbling one-minute totals cover exactly the rows before the last
    // close.
    for (const Watch& w : watches_) {
      if (w.object == "minute_total" && w.count_total != before_last_close) {
        Fail("minute_total adds to " + std::to_string(w.count_total) +
             ", want " + std::to_string(before_last_close));
      }
    }
    const int64_t archived = SelectCount("SELECT count(*) FROM url_log");
    if (archived != rows_total_) {
      Fail("url_log holds " + std::to_string(archived) + " rows, ingested " +
           std::to_string(rows_total_));
    }
  } else {
    // Tumbling one-minute totals cover exactly the rows before the last
    // close, as delivered and as persisted.
    auto sum = CheckResult(db_.Execute("SELECT sum(scnt) FROM minute_tbl"),
                           "sum");
    const std::string want = "i" + std::to_string(before_last_close);
    if (derived.count_total != before_last_close || sum.rows.size() != 1 ||
        CanonRow(sum.rows[0]) != want) {
      Fail("minute_counts add to " + std::to_string(derived.count_total) +
           " delivered, " +
           (sum.rows.empty() ? "nothing" : CanonRow(sum.rows[0])) +
           " persisted; want " + want);
    }
  }
  if (server_) {
    // Every request byte the server read is a frame this process encoded.
    const net::NetStats ns = server_->stats();
    if (ns.bytes_in != wire_request_bytes_) {
      Fail("server bytes_in " + std::to_string(ns.bytes_in) +
           " != encoded request bytes " + std::to_string(wire_request_bytes_));
    }
  }
  if (!selftest_done_) Fail("self-test did not run");
}

// ---------------------------------------------------------------------------
// Probe phase (traced runs): re-time the layers' public functions on the
// run's own inputs, and ingest kProbeBatches more batches alternately over
// the wire and in-process to price the wire.

void Bench::ProbeProtocol() {
  net::IngestBatchRequest req;
  req.stream = "url_stream";
  req.rows = gen_.ToRows(clicks_);
  const double n = static_cast<double>(clicks_.size());
  std::string body;
  {
    ScopedSpan span(&tracer_, "net.protocol.EncodeIngestBody");
    tracer_.SetArg(span.id(), static_cast<int64_t>(n));
    const int64_t t0 = NowNs();
    body = net::EncodeIngestBody(req);
    encode_samples_.push_back(static_cast<double>(NowNs() - t0) / n);
  }
  net::IngestColumnarRequest out;
  ScopedSpan span(&tracer_, "net.protocol.DecodeIngestBodyColumnar");
  tracer_.SetArg(span.id(), static_cast<int64_t>(n));
  const int64_t t0 = NowNs();
  auto ok = net::DecodeIngestBodyColumnar(body, &out);
  decode_samples_.push_back(static_cast<double>(NowNs() - t0) / n);
  if (!ok.ok() || !*ok || out.batch.row_count() != clicks_.size()) {
    Fail("DecodeIngestBodyColumnar did not round-trip");
  }
}

void Bench::Probe() {
  tracer_.set_enabled(true);
  if (!server_) {
    // As wire_subscribe runs; the server's threads inherit it.
    PinToFastestCpus(kWireCpus);
    StartServer();
  }
  CheckThreads("probe");
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    wire_request_bytes_ += FrameBytes(net::EncodeAckBody(""));
    ScopedSpan span(&tracer_, "net.Client.Ping");
    const int64_t t0 = NowNs();
    Check(ingest_client_.Ping(kRpcMicros), "ping");
    samples.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  ping_us_ = Median(samples);

  int64_t wire_rows = 0, wire_bytes = 0;
  for (int i = 0; i < kProbeBatches; ++i) {
    // Even batches over the wire, odd ones in-process: the difference of
    // the medians over batches that close no window prices the wire. A
    // batch that opens a logical minute closes the one-minute windows; it
    // always goes in-process, so the runtime's close cost is seen in every
    // workload.
    const bool wire = i % 2 == 0 && batches_ % 60 != 0;
    const int64_t in_before = server_->stats().bytes_in;
    Step(wire ? Path::kWire : Path::kColumns, false, true);
    if (wire) {
      wire_bytes += server_->stats().bytes_in - in_before;
      wire_rows += static_cast<int64_t>(clicks_.size());
    }
    if (!last_call_closed_) {
      (wire ? wire_absorb_us_ : inproc_absorb_us_)
          .push_back(static_cast<double>(last_call_ns_) / 1000.0);
    }
  }
  encode_ns_per_row_ = Median(encode_samples_);
  decode_ns_per_row_ = Median(decode_samples_);
  probe_bytes_in_per_row_ = wire_rows > 0 ? static_cast<double>(wire_bytes) /
                                                static_cast<double>(wire_rows)
                                          : 0;

  // Decode of a pushed window, on a window this run delivered.
  {
    if (sample_.rows.empty()) Die("no delivered window to probe");
    net::StreamRowsBody body;
    body.source = watches_[sample_.watch].object;
    body.close = sample_.close;
    body.rows = sample_.rows;
    const std::string bytes = net::EncodeStreamRowsBody(body);
    const double n = static_cast<double>(body.rows.size());
    probe_push_bytes_per_row_ = static_cast<double>(FrameBytes(bytes)) / n;
    std::vector<double> push;
    for (int i = 0; i < 20; ++i) {
      ScopedSpan span(&tracer_, "net.protocol.DecodeStreamRowsBody");
      tracer_.SetArg(span.id(), static_cast<int64_t>(n));
      const int64_t t0 = NowNs();
      auto decoded = net::DecodeStreamRowsBody(bytes);
      push.push_back(static_cast<double>(NowNs() - t0) / n);
      if (!decoded.ok() || decoded->rows != body.rows) {
        Fail("DecodeStreamRowsBody did not round-trip");
      }
    }
    decode_push_ns_per_row_ = Median(push);
  }

  // SQL parse of the report text.
  {
    const std::string sql = ReportSql(last_report_close_);
    std::vector<double> parse;
    for (int i = 0; i < 200; ++i) {
      ScopedSpan span(&tracer_, "sql.ParseSql");
      const int64_t t0 = NowNs();
      auto parsed = streamrel::sql::ParseSql(sql);
      parse.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      if (!parsed.ok()) Fail("report does not parse");
    }
    parse_us_ = Median(parse);
  }

  // Storage: scan the active table's heap, probe its stime index.
  {
    streamrel::catalog::TableInfo* table =
        db_.catalog()->GetTable(active_table_);
    if (table == nullptr || table->FindIndexOn("stime") == nullptr) {
      Die("active table or its index is missing");
    }
    std::vector<double> scan;
    for (int i = 0; i < 10; ++i) {
      int64_t seen = 0;
      ScopedSpan span(&tracer_, "storage.HeapTable.Scan");
      const int64_t t0 = NowNs();
      Check(table->heap->Scan(*db_.txns(), db_.txns()->CurrentSnapshot(),
                              streamrel::storage::kInvalidTxn,
                              [&seen](streamrel::storage::RowId,
                                      const Row&) {
                                ++seen;
                                return true;
                              }),
            "heap scan");
      tracer_.SetArg(span.id(), seen);
      if (seen > 0) {
        scan.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(seen));
      }
    }
    scan_ns_per_row_ = Median(scan);
    const streamrel::storage::BTreeIndex* index = table->FindIndexOn("stime");
    const Value key = Value::Timestamp(last_report_close_);
    std::vector<double> lookup;
    for (int i = 0; i < 200; ++i) {
      int64_t hits = 0;
      ScopedSpan span(&tracer_, "storage.BTreeIndex.ScanEqual");
      const int64_t t0 = NowNs();
      index->ScanEqual(key, [&hits](streamrel::storage::RowId) {
        ++hits;
        return true;
      });
      lookup.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      tracer_.SetArg(span.id(), hits);
      if (hits == 0) Fail("index lookup of the report key found nothing");
    }
    lookup_us_ = Median(lookup);
  }
}

// ---------------------------------------------------------------------------
// Metrics.

int64_t Stat(const engine::EngineStats& s, const std::string& scope,
             const std::string& name, const std::string& metric) {
  int64_t total = 0;
  for (const auto& m : s.metrics) {
    if (m.scope == scope && m.metric == metric &&
        (name.empty() || m.name == name)) {
      total += m.value;
    }
  }
  return total;
}

std::vector<Metric> Bench::EndToEnd() {
  std::vector<Metric> out;
  out.push_back({"ingest_rows_per_s", Median(block_rows_per_s_), "rows/s"});
  out.push_back({"freshness_p50_us", Median(freshness_us_), "us"});
  out.push_back({"freshness_p90_us", Quantile(freshness_us_, 0.9), "us"});
  out.push_back({"report_p50_us", Median(report_us_), "us"});
  out.push_back({"setup_s", static_cast<double>(setup_ns_) / 1e9, "s"});
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return out;
}

std::vector<Metric> Bench::PerLayer() {
  std::vector<Metric> out;
  // stream.runtime: ingest spans split by whether a window closed inside.
  std::vector<int> children(tracer_.spans().size(), 0);
  for (const auto& s : tracer_.spans()) {
    if (s.parent >= 0 &&
        std::string(s.name) == "subscriber.deliver") {
      ++children[s.parent];
    }
  }
  std::vector<double> absorb, close_extra;
  struct CloseCall {
    double ns;
    double rows;
    int windows;
  };
  std::vector<CloseCall> close_calls;
  for (size_t i = 0; i < tracer_.spans().size(); ++i) {
    const auto& s = tracer_.spans()[i];
    if (std::string(s.name) != "engine.Ingest" || s.arg <= 0) continue;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (children[i] == 0) {
      absorb.push_back(ns / static_cast<double>(s.arg));
    } else {
      close_calls.push_back({ns, static_cast<double>(s.arg), children[i]});
    }
  }
  const double absorb_ns = Median(absorb);
  for (const CloseCall& c : close_calls) {
    close_extra.push_back((c.ns - c.rows * absorb_ns) / 1000.0 / c.windows);
  }
  out.push_back({"stream.runtime.absorb_ns_per_row", absorb_ns, "ns"});
  out.push_back({"stream.runtime.close_us_per_window", Median(close_extra),
                 "us"});
  const auto delta = [this](const std::string& scope, const std::string& name,
                            const std::string& metric) {
    return static_cast<double>(Stat(stats_after_, scope, name, metric) -
                               Stat(stats_before_, scope, name, metric));
  };
  out.push_back({"stream.runtime.vectorized_batches",
                 static_cast<double>(db_.runtime()->vectorized_batches()),
                 "count"});
  out.push_back({"stream.runtime.fallback_batches",
                 static_cast<double>(db_.runtime()->vectorize_fallbacks()),
                 "count"});
  // stream.continuous_query: the engine's per-CQ eval histograms.
  std::vector<double> eval;
  int64_t windows = 0;
  for (const auto& m : stats_after_.metrics) {
    if (m.scope == "cq" && m.metric == "eval_micros_p50") {
      eval.push_back(static_cast<double>(m.value));
    }
  }
  for (const Watch& w : watches_) windows += w.windows;
  out.push_back({"stream.continuous_query.eval_p50_us", Median(eval), "us"});
  out.push_back({"stream.continuous_query.windows_delivered",
                 static_cast<double>(windows), "count"});
  // stream.channel / storage.
  out.push_back({"stream.channel.rows_persisted",
                 static_cast<double>(
                     Stat(stats_after_, "channel", "", "rows_persisted")),
                 "count"});
  const double rows = static_cast<double>(std::max<int64_t>(rows_total_, 1));
  out.push_back({"storage.wal.bytes_per_row",
                 static_cast<double>(stats_after_.wal_bytes) / rows, "B"});
  out.push_back({"storage.wal.records",
                 static_cast<double>(stats_after_.wal_records), "count"});
  out.push_back({"storage.disk.bytes_written",
                 static_cast<double>(stats_after_.disk.bytes_written), "B"});
  out.push_back({"storage.disk.page_reads",
                 static_cast<double>(stats_after_.disk.page_reads), "count"});
  out.push_back({"storage.disk.simulated_io_ms",
                 static_cast<double>(stats_after_.disk.simulated_io_micros) /
                     1000.0,
                 "ms"});
  out.push_back({"storage.heap_table.scan_ns_per_row", scan_ns_per_row_,
                 "ns"});
  out.push_back({"storage.btree_index.lookup_us", lookup_us_, "us"});
  // sql / exec.
  std::vector<double> report_spans;
  for (const auto& s : tracer_.spans()) {
    const std::string name = s.name;
    if (name == "engine.Execute" || name == "net.Client.Query") {
      report_spans.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                             1000.0);
    }
  }
  out.push_back({"sql.parser.parse_us", parse_us_, "us"});
  out.push_back({"exec.planner.report_exec_us",
                 Median(report_spans) - parse_us_, "us"});
  // net.
  out.push_back({"net.protocol.encode_ingest_ns_per_row", encode_ns_per_row_,
                 "ns"});
  out.push_back({"net.protocol.decode_ingest_ns_per_row", decode_ns_per_row_,
                 "ns"});
  out.push_back({"net.protocol.decode_push_ns_per_row",
                 decode_push_ns_per_row_, "ns"});
  out.push_back({"net.client.ping_rtt_us", ping_us_, "us"});
  out.push_back({"net.server.ingest_tax_us_per_batch",
                 Median(wire_absorb_us_) - Median(inproc_absorb_us_), "us"});
  out.push_back({"net.server.bytes_in_per_row", probe_bytes_in_per_row_,
                 "B"});
  out.push_back({"net.server.bytes_out_per_push_row",
                 push_rows_ > 0 ? static_cast<double>(push_bytes_) /
                                      static_cast<double>(push_rows_)
                                : probe_push_bytes_per_row_,
                 "B"});
  // engine lock hierarchy, over the timed phase.
  out.push_back({"engine.lock_shared_wait_us",
                 delta("engine", "lock", "shared_wait_micros"), "us"});
  out.push_back({"engine.lock_contended",
                 delta("engine", "lock", "shared_contended") +
                     delta("engine", "lock", "stream_contended") +
                     delta("engine", "lock", "dml_contended"),
                 "count"});
  // Tracing overhead: timed ingest calls with spans on vs off, by block.
  std::vector<double> on, off;
  for (const auto& [ns, traced] : call_ns_per_row_) {
    (traced ? on : off).push_back(ns);
  }
  out.push_back({"trace.overhead_pct",
                 100.0 * (Median(on) / std::max(Median(off), 1e-9) - 1.0),
                 "%"});
  return out;
}

// ---------------------------------------------------------------------------

int Bench::Run() {
  // The process runs on the CPUs that are fastest right now, and moves
  // between rounds as the host's contention moves: one for the in-process
  // workloads, kWireCpus for the wire's client, server and reader threads,
  // one more per shard worker under --parallelism.
  const int cpus = kind_ == Kind::kWire       ? kWireCpus
                   : opt_.parallelism > 1     ? opt_.parallelism + 1
                                              : 1;
  // setup_s leaves out the benchmark's own CPU probe.
  const int64_t pin_start = NowNs();
  PinToFastestCpus(cpus);
  int64_t last_pin = NowNs();
  pin_ns_ = last_pin - pin_start;
  Setup();
  for (int i = 0; i < kWarmupBatches; ++i) {
    Step(path_, false);
    if ((i + 1) % report_every_ == 0) Report(false);
  }
  CheckThreads("setup");
  setup_ns_ = NowNs() - opt_.start_ns - pin_ns_;
  if (!failure_.empty()) {
    fprintf(stderr, "streambench: %s\n", failure_.c_str());
    PrintResult(false, attempted_, 0, {});
    return 1;
  }
  stats_before_ = db_.StatsSnapshot();
  const int64_t attempted_before = attempted_;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(opt_.seconds) * 1'000'000'000;
  // A traced run does a fixed amount of work for its --seconds, so its
  // counters repeat exactly for a seed; an untraced run measures for
  // --seconds of wall time, or does a fixed amount of work too where the
  // workload asks for it.
  const int64_t batches_per_s =
      opt_.trace ? traced_batches_per_s_ : untraced_batches_per_s_;
  const int64_t fixed_rounds =
      static_cast<int64_t>(opt_.seconds) * batches_per_s / report_every_;
  int64_t round = 0;
  while ((fixed_rounds > 0 ? round < fixed_rounds : NowNs() < deadline) &&
         failure_.empty()) {
    // One round: report_every_ batches and the report, read by every
    // viewer. A traced run turns spans on and off by block to price the
    // tracing itself.
    tracer_.set_enabled(opt_.trace &&
                        (round * report_every_ / kTraceBlock) % 2 == 0);
    for (int i = 0; i < report_every_; ++i) Step(path_, true);
    Report(true);
    ++round;
    if (NowNs() - last_pin >= kRepinNs) {
      PinToFastestCpus(cpus);
      last_pin = NowNs();
    }
  }
  tracer_.set_enabled(false);
  CheckThreads("timed phase");
  if (opt_.trace) Probe();
  StopPushReader();
  stats_after_ = db_.StatsSnapshot();
  FinalChecks();
  const int64_t attempted = attempted_ - attempted_before;
  const bool correct = failure_.empty();
  if (!correct) fprintf(stderr, "streambench: %s\n", failure_.c_str());
  if (opt_.trace) {
    mkdir(opt_.out_dir.c_str(), 0755);
    const std::string path = opt_.out_dir + "/trace_" + opt_.workload + "_" +
                             std::to_string(opt_.seed) + ".json";
    if (!tracer_.WriteJson(path)) Die("cannot write " + path);
    std::vector<Metric> metrics = PerLayer();
    for (const auto& [name, st] : tracer_.SelfTimes()) {
      fprintf(stderr, "span %-40s count %8lld self %10.3f ms total %10.3f ms\n",
              name.c_str(), static_cast<long long>(st.count),
              static_cast<double>(st.self_ns) / 1e6,
              static_cast<double>(st.total_ns) / 1e6);
    }
    PrintResult(correct, attempted, 0, metrics);
  } else {
    fprintf(stderr,
            "streambench: %s seed %llu: cpu probe %.1f ms, %lld batches, "
            "%zu blocks (rows/s quartiles %.0f %.0f %.0f), %zu freshness "
            "samples, %zu reports\n",
            opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
            static_cast<double>(pin_ns_) / 1e6,
            static_cast<long long>(batches_), block_rows_per_s_.size(),
            Quantile(block_rows_per_s_, 0.25), Quantile(block_rows_per_s_, 0.5),
            Quantile(block_rows_per_s_, 0.75), freshness_us_.size(),
            report_us_.size());
    PrintResult(correct, attempted, 0, EndToEnd());
  }
  return correct ? 0 : 1;
}

}  // namespace

int RunWorkload(const Options& options) {
  Bench bench(options);
  return bench.Run();
}

}  // namespace streambench
