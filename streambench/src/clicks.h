// The benchmark's input and its independent check.
//
// ClickGen is the seeded generator of the paper's Example 1 click stream
// (url, atime, client_ip). Reference recomputes every window of a CQ from
// the generated tuples alone — no slices, no sharing, nothing from
// src/stream — and compares the engine's delivered relation against it.
#ifndef STREAMBENCH_CLICKS_H_
#define STREAMBENCH_CLICKS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/schema.h"
#include "exec/column_batch.h"

namespace streambench {

using streamrel::Row;

constexpr int64_t kSecond = 1'000'000;
constexpr int64_t kMinute = 60 * kSecond;

struct Click {
  int64_t ts = 0;
  uint32_t url = 0;
  uint32_t ip = 0;
};

/// Shape of the generated stream; see README.md for the values used.
struct ClickShape {
  int urls = 1000;        // distinct URLs, Zipf-distributed
  double zipf_skew = 1.07;
  int ips = 2048;         // distinct client IPs, uniform
  int64_t mean_step_us = 1000;  // mean logical gap between clicks
  int64_t batch_us = kSecond;   // one batch = one logical interval
  int64_t start_us = 1'231'146'000LL * kSecond;  // 2009-01-05 09:00 UTC
};

/// Deterministic per seed. Timestamps strictly increase by a uniform
/// random step in [1, 2 * mean_step_us - 1] µs; a batch holds every click
/// of one logical interval, so window boundaries fall between batches and
/// a window's closing row is always the first row of a batch.
class ClickGen {
 public:
  ClickGen(uint64_t seed, const ClickShape& shape);

  /// Appends the clicks of the next logical interval to `out`.
  void NextBatch(std::vector<Click>* out);

  const std::string& url(uint32_t id) const { return urls_[id]; }
  const std::string& ip(uint32_t id) const { return ips_[id]; }
  int url_count() const { return static_cast<int>(urls_.size()); }
  int ip_count() const { return static_cast<int>(ips_.size()); }

  Row ToRow(const Click& c) const;
  std::vector<Row> ToRows(const std::vector<Click>& clicks) const;
  streamrel::exec::ColumnBatch ToColumns(
      const std::vector<Click>& clicks) const;

 private:
  ClickShape shape_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<std::string> urls_;
  std::vector<std::string> ips_;
  int64_t next_ts_;
  int64_t interval_end_;
};

/// SQL LIKE with '%' and '_' (no escapes) — the reference's own matcher.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// One CQ as the reference understands it.
struct RefQuery {
  enum class Key { kNone, kUrl, kIp };
  enum class Out {
    kKeyCount,       // [key,] count(*)
    kCountMinMax,    // count(*), min(atime), max(atime)
    kKeyCountClose,  // [key,] count(*), cq_close(*)
    kRawRows,        // url, atime, client_ip of every row
    kHistoryJoin,    // Example 5: (sum of this window's per-URL counts,
                     // each URL's count one advance earlier, close)
  };
  std::string name;
  int64_t visible = 0;
  int64_t advance = 0;
  Key key = Key::kNone;
  Out out = Out::kKeyCount;
  std::string url_like;  // empty: no filter
  int top_k = 0;         // ORDER BY count DESC LIMIT top_k (0: unordered)
};

/// Naive window evaluator over the generated tuples it has been fed.
class Reference {
 public:
  explicit Reference(const ClickGen* gen) : gen_(gen) {}

  void Add(const std::vector<Click>& clicks);
  /// Forgets tuples older than `ts` (no window still to check needs them).
  void Forget(int64_t ts);

  /// "" when `delivered` is exactly the relation `q` yields for the window
  /// closing at `close`; otherwise a description of the first difference.
  std::string Compare(const RefQuery& q, int64_t close,
                      const std::vector<Row>& delivered) const;

  /// The relation itself, one canonical string per row (sorted; for a
  /// top-k query, the full grouped relation before ORDER BY/LIMIT).
  std::vector<std::string> Evaluate(const RefQuery& q, int64_t close) const;

  /// Tuples with ts in [lo, hi).
  int64_t CountBetween(int64_t lo, int64_t hi) const;

 private:
  std::vector<std::pair<uint32_t, int64_t>> GroupCounts(const RefQuery& q,
                                                        int64_t close) const;
  std::string KeyText(RefQuery::Key key, uint32_t id) const;

  const ClickGen* gen_;
  std::deque<Click> rows_;
  /// Per-pattern LIKE verdict for each URL id, filled on first use.
  mutable std::map<std::string, std::vector<char>> like_cache_;
};

/// Canonical text of one value / row: type tag plus exact payload.
std::string Canon(const streamrel::Value& v);
std::string CanonRow(const Row& row);

}  // namespace streambench

#endif  // STREAMBENCH_CLICKS_H_
