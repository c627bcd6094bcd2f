#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "common/metrics.h"

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// MetricSnapshot: a reader for exactly the JSON MetricsRegistry::ToJson
// writes. Unknown sections (the trace array) are skipped generically.

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool Consume(char c) {
    Ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    Ws();
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out->push_back(s_[i_++]);
    }
    ++i_;
    return i_ <= s_.size();
  }
  bool Number(double* out) {
    Ws();
    const size_t start = i_;
    while (i_ < s_.size() && std::string_view("+-.eE0123456789").find(
                                 s_[i_]) != std::string_view::npos) {
      ++i_;
    }
    if (i_ == start) return false;
    *out = std::strtod(std::string(s_.substr(start, i_ - start)).c_str(),
                       nullptr);
    return true;
  }
  // Skips one value of any type.
  bool Skip() {
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '"') {
      std::string tmp;
      return String(&tmp);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      if (Consume(close)) return true;
      do {
        if (c == '{') {
          std::string key;
          if (!String(&key) || !Consume(':')) return false;
        }
        if (!Skip()) return false;
      } while (Consume(','));
      return Consume(close);
    }
    double d = 0.0;
    if (Number(&d)) return true;
    while (i_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[i_]))) {
      ++i_;  // true / false / null
    }
    return true;
  }
  // Iterates an object, calling on_member(key) positioned at each value;
  // on_member must consume the value.
  template <typename F>
  bool Object(F on_member) {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Consume(':') || !on_member(key)) return false;
    } while (Consume(','));
    return Consume('}');
  }

 private:
  void Ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  std::string_view s_;
  size_t i_ = 0;
};

}  // namespace

MetricSnapshot MetricSnapshot::Parse(std::string_view json) {
  MetricSnapshot snap;
  JsonReader r(json);
  r.Object([&](const std::string& section) {
    if (section == "counters" || section == "gauges") {
      return r.Object([&](const std::string& name) {
        double v = 0.0;
        if (!r.Number(&v)) return false;
        snap.values_[name] = v;
        return true;
      });
    }
    if (section == "histograms") {
      return r.Object([&](const std::string& name) {
        return r.Object([&](const std::string& field) {
          if (field != "count" && field != "sum") return r.Skip();
          double v = 0.0;
          if (!r.Number(&v)) return false;
          snap.values_[name + "." + field] = v;
          return true;
        });
      });
    }
    return r.Skip();
  });
  return snap;
}

MetricSnapshot MetricSnapshot::Local() {
  return Parse(automc::metrics::MetricsRegistry::Global().ToJson());
}

double MetricSnapshot::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double MetricSnapshot::SumMatching(const std::string& prefix,
                                   const std::string& suffix) const {
  double total = 0.0;
  for (auto it = values_.lower_bound(prefix);
       it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string& n = it->first;
    if (n.size() >= prefix.size() + suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

void MetricSnapshot::Accumulate(const MetricSnapshot& other) {
  for (const auto& [k, v] : other.values_) values_[k] += v;
}

MetricSnapshot MetricSnapshot::Minus(const MetricSnapshot& before) const {
  MetricSnapshot d = *this;
  for (const auto& [k, v] : before.values_) d.values_[k] -= v;
  return d;
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::Begin(const std::string& name, int parent) {
  const double now = NowMs();
  if (origin_ms_ < 0) origin_ms_ = now;
  spans_.push_back({name, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) { spans_[static_cast<size_t>(id)].end_ms = NowMs(); }

double Tracer::DurationMs(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_ms - s.start_ms;
}

double Tracer::SelfMs(int id) const {
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans_) {
    if (s.parent == id) kids.emplace_back(s.start_ms, s.end_ms);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = -1e300;
  for (const auto& [a, b] : kids) {
    const double lo = std::max(a, reach);
    if (b > lo) covered += b - lo;
    reach = std::max(reach, b);
  }
  return DurationMs(id) - covered;
}

double Tracer::Coverage(int id) const {
  const double d = DurationMs(id);
  return d > 0 ? 1.0 - SelfMs(id) / d : 0.0;
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += DurationMs(static_cast<int>(i));
  }
  return total;
}

std::string Tracer::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%zu,\"name\":%s,\"parent\":%d,\"start_ms\":%.3f,"
                  "\"end_ms\":%.3f,\"self_ms\":%.3f}",
                  i ? "," : "", i, JsonString(s.name).c_str(), s.parent,
                  s.start_ms - origin_ms_, s.end_ms - origin_ms_,
                  SelfMs(static_cast<int>(i)));
    out += buf;
  }
  return out + "]";
}

// ---------------------------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + JsonNumber(v[i]);
  return out + "]";
}

double SelfCpuMs() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ProcessCpuMs(int pid) {
  double total_ns = 0.0;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu_ns = 0.0;
    if (in >> on_cpu_ns) total_ns += on_cpu_ns;
  }
  return total_ns / 1e6;
}

double SelfPeakRssMiB() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string MakeRunDir(const std::string& root) {
  const std::string dir = root + "/run-" + std::to_string(::getpid());
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string SeededBytes(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  uint64_t x = seed;
  for (size_t i = 0; i < n; i += 8) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    for (size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<char>(z >> (8 * b));
    }
  }
  return out;
}

}  // namespace perfbench
