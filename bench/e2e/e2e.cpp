#include "e2e.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  if (rank < 1.0) rank = 1.0;
  return v[static_cast<std::size_t>(rank) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Checker::set_reference(Reference ref, bool self_test) {
  ref_ = std::move(ref);
  // --self-test: a single wrong reference value must turn the run red.
  if (self_test) ref_.out.at(0).at(0).at(0) += 1.0f;
}

void Checker::expect(std::size_t kind, std::size_t input, const std::vector<float>& got,
                     int tokens) {
  ++attempted_;
  const std::vector<float>& want = ref_.out.at(kind).at(input);
  bool ok = got.size() == want.size();
  for (std::size_t i = 0; ok && i < want.size(); ++i)
    ok = std::fabs(static_cast<double>(got[i]) - static_cast<double>(want[i])) <= kTolerance;
  if (ok && tokens >= 0) ok = tokens == ref_.tokens.at(kind).at(input);
  if (!ok) {
    ++mismatches_;
    ++failed_;
    if (mismatches_ <= 3)
      std::fprintf(stderr, "acrobat_e2e: output mismatch (kind %zu, input %zu)\n", kind, input);
  }
}

void Checker::fail(const char* why) {
  ++attempted_;
  ++failed_;
  if (++reasons_[why] == 1) std::fprintf(stderr, "acrobat_e2e: failed request: %s\n", why);
}

double Spans::total_ms() const {
  double ms = 0;
  for (const Span& s : spans_) ms += ms_between(s.t0_ns, s.t1_ns);
  return ms;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fputs("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
             "\"args\":{\"name\":\"bench\"}}",
             f);
  for (const Span& s : spans_)
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"name\":\"%s\",\"cat\":\"bench\"}",
                 static_cast<double>(s.t0_ns) * 1e-3,
                 static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, s.name.c_str());
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
