// pxbench/checks.cpp — statistics, output checks and per-solve counts.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "bench.hpp"

namespace pxbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t const n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t host_workers() {
  unsigned const n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

namespace {

template <typename T>
check_result compare(std::vector<T> const& got, std::vector<T> const& ref,
                     bool bitwise, double tol) {
  check_result r;
  if (got.size() != ref.size()) {
    r.max_abs_err = std::numeric_limits<double>::infinity();
    r.why = "size " + std::to_string(got.size()) + " != reference " +
            std::to_string(ref.size());
    return r;
  }
  std::size_t first_bad = got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    double const g = static_cast<double>(got[i]);
    double const e = std::abs(g - static_cast<double>(ref[i]));
    // A NaN never satisfies a comparison, so test for it explicitly: the
    // benchmark binary is built with -ffast-math, but this file is not.
    bool const bad = bitwise ? std::memcmp(&got[i], &ref[i], sizeof(T)) != 0
                             : !std::isfinite(g) || !(e <= tol);
    r.max_abs_err = std::isnan(e) ? std::numeric_limits<double>::infinity()
                                  : std::max(r.max_abs_err, e);
    if (bad && first_bad == got.size()) first_bad = i;
  }
  r.ok = first_bad == got.size();
  if (!r.ok) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "element %zu is %.17g, reference %.17g",
                  first_bad, static_cast<double>(got[first_bad]),
                  static_cast<double>(ref[first_bad]));
    r.why = buf;
    r.why += bitwise ? " (bitwise check)"
                     : " (tolerance " + std::to_string(tol) + ")";
  }
  return r;
}

}  // namespace

check_result check_bitwise(std::vector<double> const& got,
                           std::vector<double> const& ref) {
  return compare(got, ref, true, 0.0);
}

check_result check_within(std::vector<double> const& got,
                          std::vector<double> const& ref, double tol) {
  return compare(got, ref, false, tol);
}

check_result check_within(std::vector<float> const& got,
                          std::vector<float> const& ref, double tol) {
  return compare(got, ref, false, tol);
}

count_map solve_counts(px::counters::snapshot const& delta) {
  // Registry path (or per-worker path suffix) -> count name.
  static std::pair<char const*, char const*> const exact[] = {
      {"/px/parcel/messages_sent", "parcels_sent"},
      {"/px/parcel/parcels_delivered", "parcels_delivered"},
      {"/px/net/frames_on_wire", "frames"},
      {"/px/net/messages", "net_messages"},
      {"/px/net/bytes", "bytes"},
      {"/px/net/modeled_ns", "modeled_ns"},
      {"/px/net/acks", "acks"},
      {"/px/net/drops", "drops"},
      {"/px/net/retransmits", "retransmits"},
      {"/px/net/dup_suppressed", "dup_suppressed"},
      {"/px/net/delivery_failures", "delivery_failures"},
  };
  static std::pair<char const*, char const*> const per_worker[] = {
      {"}/tasks_executed", "tasks"},
      {"}/steals", "steals"},
      {"}/parks", "parks"},
      {"}/busy_ns", "busy_ns"},
  };
  count_map out;
  for (auto const& [path, key] : exact) out[key] = 0;
  for (auto const& [suffix, key] : per_worker) out[key] = 0;
  for (auto const& s : delta.samples) {
    for (auto const& [path, key] : exact)
      if (s.path == path) out[key] += s.value;
    if (s.path.rfind("/px/scheduler{", 0) != 0 ||
        s.path.find("/worker#") == std::string::npos)
      continue;
    for (auto const& [suffix, key] : per_worker) {
      std::string_view const p(s.path);
      std::string_view const sfx(suffix);
      if (p.size() > sfx.size() && p.substr(p.size() - sfx.size()) == sfx)
        out[key] += s.value;
    }
  }
  return out;
}

std::vector<std::string> unstable_counts(
    std::vector<count_map> const& per_solve,
    std::vector<std::string> const& pinned) {
  std::vector<std::string> bad;
  if (per_solve.empty()) return bad;
  for (auto const& name : pinned) {
    auto value = [&](count_map const& m) {
      auto it = m.find(name);
      return it == m.end() ? ~std::uint64_t{0} : it->second;
    };
    std::uint64_t const first = value(per_solve.front());
    for (auto const& m : per_solve)
      if (value(m) != first) {
        bad.push_back(name);
        break;
      }
  }
  return bad;
}

}  // namespace pxbench
