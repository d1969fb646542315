#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "clicks.h"

namespace streambench {

using streamrel::DataType;
using streamrel::Value;

ClickGen::ClickGen(uint64_t seed, const ClickShape& shape)
    : shape_(shape),
      rng_(seed * 0x9E3779B97F4A7C15ULL + 1),
      next_ts_(shape.start_us),
      interval_end_(shape.start_us) {
  double total = 0;
  for (int i = 1; i <= shape.urls; ++i) {
    total += 1.0 / std::pow(i, shape.zipf_skew);
  }
  double acc = 0;
  for (int i = 1; i <= shape.urls; ++i) {
    acc += 1.0 / std::pow(i, shape.zipf_skew) / total;
    zipf_cdf_.push_back(acc);
  }
  zipf_cdf_.back() = 1.0;
  for (int i = 0; i < shape.urls; ++i) {
    urls_.push_back("/page/" + std::to_string(i));
  }
  for (int i = 0; i < shape.ips; ++i) {
    ips_.push_back("10." + std::to_string(i / 256) + "." +
                   std::to_string(i % 256) + ".7");
  }
}

void ClickGen::NextBatch(std::vector<Click>* out) {
  interval_end_ += shape_.batch_us;
  const uint64_t span = static_cast<uint64_t>(2 * shape_.mean_step_us - 1);
  while (next_ts_ < interval_end_) {
    Click c;
    c.ts = next_ts_;
    const double u =
        static_cast<double>(rng_() >> 11) * (1.0 / 9007199254740992.0);
    c.url = static_cast<uint32_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    c.ip = static_cast<uint32_t>(rng_() % static_cast<uint64_t>(shape_.ips));
    out->push_back(c);
    next_ts_ += 1 + static_cast<int64_t>(rng_() % span);
  }
}

Row ClickGen::ToRow(const Click& c) const {
  return Row{Value::String(urls_[c.url]), Value::Timestamp(c.ts),
             Value::String(ips_[c.ip])};
}

std::vector<Row> ClickGen::ToRows(const std::vector<Click>& clicks) const {
  std::vector<Row> rows;
  rows.reserve(clicks.size());
  for (const Click& c : clicks) rows.push_back(ToRow(c));
  return rows;
}

streamrel::exec::ColumnBatch ClickGen::ToColumns(
    const std::vector<Click>& clicks) const {
  streamrel::exec::ColumnBatch batch(3);
  batch.Reserve(clicks.size());
  for (const Click& c : clicks) {
    batch.AppendString(0, urls_[c.url]);
    batch.AppendTimestamp(1, c.ts);
    batch.AppendString(2, ips_[c.ip]);
    batch.CommitRow();
  }
  return batch;
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Classic two-pointer wildcard match with backtracking to the last '%'.
  size_t t = 0, p = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

std::string Canon(const Value& v) {
  char buf[48];
  switch (v.type()) {
    case DataType::kNull:
      return "N";
    case DataType::kBool:
      return v.AsInt64() ? "b1" : "b0";
    case DataType::kInt64:
      return "i" + std::to_string(v.AsInt64());
    case DataType::kDouble:
      snprintf(buf, sizeof(buf), "d%.17g", v.AsDouble());
      return buf;
    case DataType::kString:
      return "s" + v.AsString();
    case DataType::kTimestamp:
      return "t" + std::to_string(v.AsTimestampMicros());
    case DataType::kInterval:
      return "v" + std::to_string(v.AsInt64());
  }
  return "?";
}

std::string CanonRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += '|';
    out += Canon(row[i]);
  }
  return out;
}

void Reference::Add(const std::vector<Click>& clicks) {
  rows_.insert(rows_.end(), clicks.begin(), clicks.end());
}

void Reference::Forget(int64_t ts) {
  while (!rows_.empty() && rows_.front().ts < ts) rows_.pop_front();
}

int64_t Reference::CountBetween(int64_t lo, int64_t hi) const {
  auto by_ts = [](const Click& c, int64_t t) { return c.ts < t; };
  auto a = std::lower_bound(rows_.begin(), rows_.end(), lo, by_ts);
  auto b = std::lower_bound(rows_.begin(), rows_.end(), hi, by_ts);
  return b - a;
}

std::string Reference::KeyText(RefQuery::Key key, uint32_t id) const {
  return key == RefQuery::Key::kUrl ? "s" + gen_->url(id) : "s" + gen_->ip(id);
}

std::vector<std::pair<uint32_t, int64_t>> Reference::GroupCounts(
    const RefQuery& q, int64_t close) const {
  auto by_ts = [](const Click& c, int64_t t) { return c.ts < t; };
  auto a = std::lower_bound(rows_.begin(), rows_.end(), close - q.visible,
                            by_ts);
  auto b = std::lower_bound(rows_.begin(), rows_.end(), close, by_ts);
  const std::vector<char>* match = nullptr;
  if (!q.url_like.empty()) {
    std::vector<char>& m = like_cache_[q.url_like];
    if (m.empty()) {
      for (int i = 0; i < gen_->url_count(); ++i) {
        m.push_back(LikeMatch(gen_->url(i), q.url_like) ? 1 : 0);
      }
    }
    match = &m;
  }
  const size_t width = q.key == RefQuery::Key::kUrl   ? gen_->url_count()
                       : q.key == RefQuery::Key::kIp ? gen_->ip_count()
                                                     : 1;
  std::vector<int64_t> counts(width, 0);
  for (auto it = a; it != b; ++it) {
    if (match != nullptr && !(*match)[it->url]) continue;
    uint32_t id = 0;
    if (q.key == RefQuery::Key::kUrl) id = it->url;
    if (q.key == RefQuery::Key::kIp) id = it->ip;
    ++counts[id];
  }
  std::vector<std::pair<uint32_t, int64_t>> groups;
  for (size_t id = 0; id < width; ++id) {
    if (counts[id] > 0) {
      groups.push_back({static_cast<uint32_t>(id), counts[id]});
    }
  }
  return groups;
}

std::vector<std::string> Reference::Evaluate(const RefQuery& q,
                                             int64_t close) const {
  std::vector<std::string> out;
  const std::string close_text = "t" + std::to_string(close);
  switch (q.out) {
    case RefQuery::Out::kKeyCount:
    case RefQuery::Out::kKeyCountClose: {
      auto groups = GroupCounts(q, close);
      // An ungrouped aggregate yields one row even over an empty window.
      if (q.key == RefQuery::Key::kNone && groups.empty()) {
        groups.push_back({0, 0});
      }
      for (const auto& [id, n] : groups) {
        std::string row;
        if (q.key != RefQuery::Key::kNone) row = KeyText(q.key, id) + "|";
        row += "i" + std::to_string(n);
        if (q.out == RefQuery::Out::kKeyCountClose) row += "|" + close_text;
        out.push_back(row);
      }
      break;
    }
    case RefQuery::Out::kCountMinMax: {
      auto by_ts = [](const Click& c, int64_t t) { return c.ts < t; };
      auto a = std::lower_bound(rows_.begin(), rows_.end(),
                                close - q.visible, by_ts);
      auto b = std::lower_bound(rows_.begin(), rows_.end(), close, by_ts);
      if (a == b) {
        out.push_back("i0|N|N");
      } else {
        int64_t lo = a->ts, hi = a->ts, n = 0;
        for (auto it = a; it != b; ++it) {
          lo = std::min(lo, it->ts);
          hi = std::max(hi, it->ts);
          ++n;
        }
        out.push_back("i" + std::to_string(n) + "|t" + std::to_string(lo) +
                      "|t" + std::to_string(hi));
      }
      break;
    }
    case RefQuery::Out::kRawRows: {
      auto by_ts = [](const Click& c, int64_t t) { return c.ts < t; };
      auto a = std::lower_bound(rows_.begin(), rows_.end(),
                                close - q.visible, by_ts);
      auto b = std::lower_bound(rows_.begin(), rows_.end(), close, by_ts);
      for (auto it = a; it != b; ++it) {
        if (!q.url_like.empty() &&
            !LikeMatch(gen_->url(it->url), q.url_like)) {
          continue;
        }
        out.push_back("s" + gen_->url(it->url) + "|t" +
                      std::to_string(it->ts) + "|s" + gen_->ip(it->ip));
      }
      break;
    }
    case RefQuery::Out::kHistoryJoin: {
      int64_t total = 0;
      for (const auto& g : GroupCounts(q, close)) total += g.second;
      for (const auto& [id, n] : GroupCounts(q, close - q.advance)) {
        (void)id;
        out.push_back("i" + std::to_string(total) + "|i" + std::to_string(n) +
                      "|" + close_text);
      }
      break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Reference::Compare(const RefQuery& q, int64_t close,
                               const std::vector<Row>& delivered) const {
  const std::string where =
      q.name + " @" + std::to_string(close) + ": ";
  if (q.top_k > 0) {
    // ORDER BY count DESC LIMIT k: ties at the cut make the chosen keys
    // ambiguous, so check that every delivered (key, count) is right, the
    // counts are non-increasing, and they are exactly the k largest.
    std::map<std::string, int64_t> truth;
    std::vector<int64_t> counts;
    for (const auto& [id, n] : GroupCounts(q, close)) {
      truth[KeyText(q.key, id)] = n;
      counts.push_back(n);
    }
    std::sort(counts.rbegin(), counts.rend());
    const size_t want = std::min<size_t>(counts.size(), q.top_k);
    if (delivered.size() != want) {
      return where + "top-k size " + std::to_string(delivered.size()) +
             " != " + std::to_string(want);
    }
    for (size_t i = 0; i < want; ++i) {
      const Row& row = delivered[i];
      if (row.size() != 2) return where + "top-k row arity";
      auto it = truth.find(Canon(row[0]));
      const std::string got = Canon(row[1]);
      if (it == truth.end() || got != "i" + std::to_string(it->second)) {
        return where + "top-k row " + CanonRow(row) + " is wrong";
      }
      if (got != "i" + std::to_string(counts[i])) {
        return where + "top-k rank " + std::to_string(i) + " holds " + got +
               ", want i" + std::to_string(counts[i]);
      }
    }
    return "";
  }
  std::vector<std::string> want = Evaluate(q, close);
  std::vector<std::string> got;
  got.reserve(delivered.size());
  for (const Row& row : delivered) got.push_back(CanonRow(row));
  std::sort(got.begin(), got.end());
  if (got == want) return "";
  if (got.size() != want.size()) {
    return where + std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size()) +
           (want.empty() ? "" : " (first wanted " + want[0] + ")") +
           (got.empty() ? "" : " (first got " + got[0] + ")");
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) return where + "got " + got[i] + ", want " + want[i];
  }
  return where + "differs";
}

}  // namespace streambench
