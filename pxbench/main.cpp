// pxbench/main.cpp — the whole-solve benchmark binary, pxbench_run.
//
//   pxbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-file <path>]
//
// Every solve runs on a freshly set up runtime or distributed_domain, so
// setup_s is a median over the solves too. Both modes first compute the
// reference outside every timed region and run untimed warm-up solves for a
// fifth of --seconds (at least one).
//
// Untraced (--trace 0): whole solves until --seconds have passed (at least
// three).
//
// Traced (--trace 1): the per-layer probes before everything else, then
// untraced solves for half of --seconds (at least three), then two traced
// solves with px::trace on. The per-solve counts come from the untraced
// solves; trace.overhead_frac compares the two.
//
// Prints one JSON document on the last line of stdout; pxbench/run.py turns
// it into the report. Exit code 0 when every solve passed its output check
// and every pinned count repeated exactly, 1 otherwise, 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "px/counters/counters.hpp"
#include "px/runtime/trace.hpp"
#include "px/support/topology.hpp"

namespace pxbench {
namespace {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

struct solve_record {
  double setup_s = 0.0;
  solve_outcome out;
  count_map counts;
};

// ---- JSON output ------------------------------------------------------------

std::string quote(std::string const& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class json_object {
 public:
  json_object& raw(std::string const& key, std::string const& value) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + value;
    return *this;
  }
  json_object& str(std::string const& key, std::string const& v) {
    return raw(key, quote(v));
  }
  json_object& number(std::string const& key, double v) {
    return raw(key, num(v));
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- host fingerprint -------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    auto const b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string host_json(workload const& w) {
  auto const& topo = px::host_topology();
  auto cache_kib = [](int name) {
    long const v = sysconf(name);
    return v > 0 ? static_cast<double>(v) / 1024.0 : 0.0;
  };
  bool const distributed = w.localities() > 1;
  std::size_t const budget =
      w.localities() * w.workers_per_locality() + (distributed ? 1 : 0);
#ifdef PX_TORTURE
  double const torture = 1;
#else
  double const torture = 0;
#endif
#ifdef NDEBUG
  std::string const asserts = "off (NDEBUG)";
#else
  std::string const asserts = "on";
#endif
  return json_object()
      .number("nproc", std::thread::hardware_concurrency())
      .number("logical_cpus", static_cast<double>(topo.logical_cpus))
      .number("physical_cores", static_cast<double>(topo.physical_cores))
      .number("numa_domains", static_cast<double>(topo.numa_domains))
      .str("cpu_model", cpu_model())
      .number("l1d_kib", cache_kib(_SC_LEVEL1_DCACHE_SIZE))
      .number("l2_kib", cache_kib(_SC_LEVEL2_CACHE_SIZE))
      .number("l3_kib", cache_kib(_SC_LEVEL3_CACHE_SIZE))
#ifdef __clang__
      .str("compiler", "clang " __VERSION__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .number("px_torture", torture)
      .str("assertions", asserts)
      .number("thread_budget", static_cast<double>(budget))
      .str("thread_budget_formula",
           std::to_string(w.localities()) + " localities x " +
               std::to_string(w.workers_per_locality()) + " workers" +
               (distributed ? " + 1 timer thread" : "") + ", unpinned")
      .done();
}

// ---- measuring --------------------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Sets up, solves and tears down. A fresh runtime or domain per solve makes
// every solve start from the same state (no pools, mailboxes or fault
// streams left over from the previous solve), and makes setup_s a median
// over as many setups as there are solves.
solve_record one_solve(workload& w, span_log& spans) {
  solve_record rec;
  std::uint64_t t = px::trace::now_us();
  std::uint64_t const t0 = now_ns();
  w.setup();
  rec.setup_s = seconds_since(t0);
  spans.close("bench.setup", t);

  auto const before = px::counters::registry::instance().take_snapshot();
  t = px::trace::now_us();
  rec.out = w.solve();
  spans.close("bench.solve", t);
  rec.counts = solve_counts(px::counters::delta(
      before, px::counters::registry::instance().take_snapshot()));

  t = px::trace::now_us();
  w.teardown();
  spans.close("bench.teardown", t);
  return rec;
}

// Whole solves until `seconds` have passed, at least `min_solves`.
std::vector<solve_record> solve_loop(workload& w, double seconds,
                                     std::size_t min_solves, span_log& spans) {
  std::vector<solve_record> recs;
  std::uint64_t const t0 = now_ns();
  while (recs.size() < min_solves || seconds_since(t0) < seconds)
    recs.push_back(one_solve(w, spans));
  return recs;
}

std::vector<double> solve_times(std::vector<solve_record> const& recs) {
  std::vector<double> v;
  for (auto const& r : recs)
    if (r.out.ok()) v.push_back(r.out.solve_s);
  return v;
}

double count_median(std::vector<solve_record> const& recs,
                    std::string const& key) {
  std::vector<double> v;
  for (auto const& r : recs)
    v.push_back(static_cast<double>(r.counts.at(key)));
  return median(v);
}

std::string metric(double value, std::string const& unit,
                   std::size_t samples) {
  return json_object()
      .number("value", value)
      .str("unit", unit)
      .number("samples", static_cast<double>(samples))
      .done();
}

// The per-layer metrics that come from whole solves and their counts.
metric_map solve_layer_metrics(workload const& w,
                               std::vector<solve_record> const& recs,
                               double kernel_us_per_step) {
  metric_map m;
  double const steps = static_cast<double>(w.steps());
  double const solve_s = median(solve_times(recs));
  double const step_us = solve_s / steps * 1e6;
  auto c = [&](char const* key) { return count_median(recs, key); };
  m["stencil.kernel_share"] = kernel_us_per_step / step_us;
  m["dist.exposed_comm_us_per_step"] = step_us - kernel_us_per_step;
  m["parcel.parcels_per_step"] = c("parcels_sent") / steps;
  m["net.frames_per_step"] = c("frames") / steps;
  m["net.bytes_per_step"] = c("bytes") / steps;
  m["net.modeled_wire_us_per_step"] = c("modeled_ns") * 1e-3 / steps;
  m["net.acks_per_parcel"] =
      c("parcels_sent") > 0 ? c("acks") / c("parcels_sent") : 0.0;
  m["net.retransmits"] = c("retransmits");
  m["net.spurious_retransmits"] = c("retransmits") - c("drops");
  m["net.useful_frame_ratio"] =
      c("frames") > 0 ? c("parcels_delivered") / c("frames") : 0.0;
  double const workers =
      static_cast<double>(w.localities() * w.workers_per_locality());
  m["runtime.busy_frac"] = c("busy_ns") * 1e-9 / (workers * solve_s);
  m["runtime.tasks_per_step"] = c("tasks") / steps;
  m["runtime.steals_per_step"] = c("steals") / steps;
  m["runtime.parks_per_step"] = c("parks") / steps;
  return m;
}

std::string counts_json(std::vector<solve_record> const& recs) {
  json_object o;
  if (recs.empty()) return o.done();
  for (auto const& [key, value] : recs.front().counts) {
    std::string arr;
    for (auto const& r : recs)
      arr += (arr.empty() ? "" : ",") + std::to_string(r.counts.at(key));
    o.raw(key, "[" + arr + "]");
  }
  return o.done();
}

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string const k = argv[i];
    char const* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] == '1';
    } else if (k == "--trace-file") {
      o.trace_file = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

int run(options const& o) {
  auto w = make_workload(o.workload, o.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  span_log spans;
  std::vector<solve_record> all;  // every solve, warm-up included

  // Probes first, so their memory (STREAM arrays of 4x the LLC) never
  // coexists with the workload's.
  metric_map layers;
  std::string notes;
  if (o.trace) layers = probe_layers(*w, spans, notes);

  {
    std::uint64_t const t = px::trace::now_us();
    w->setup();
    w->make_reference();
    w->teardown();
    spans.close("bench.reference", t);
  }
  // Warm-up: at least one solve and a fifth of --seconds. The process heap
  // keeps growing over the first few solves (jacobi2d_dist's first five ran
  // 1.3-3x slower while its RSS grew from 110 to 205 MiB), so a single
  // warm-up solve leaves that growth in the timed solves.
  all = solve_loop(*w, o.seconds / 5, 1, spans);

  std::vector<solve_record> timed, traced;
  if (!o.trace) {
    timed = solve_loop(*w, o.seconds, 3, spans);
  } else {
    timed = solve_loop(*w, o.seconds / 2, 3, spans);
    // Sized so the traced solves' task slices fit without overflow.
    px::trace::set_ring_capacity(std::size_t{1} << 21);
    px::trace::enable();
    traced = solve_loop(*w, 0.0, 2, spans);
    spans.flush_to_trace();
    px::trace::disable();
    if (!o.trace_file.empty() && !px::trace::write_json_file(o.trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_file.c_str());
      return 2;
    }
  }
  all.insert(all.end(), timed.begin(), timed.end());
  all.insert(all.end(), traced.begin(), traced.end());

  // Failure accounting: every solve counts, none is dropped.
  std::size_t failed = 0;
  double max_err = 0.0;
  std::string errors;
  for (auto const& r : all) {
    max_err = std::max(max_err, r.out.error.empty()
                                    ? r.out.check.max_abs_err
                                    : HUGE_VAL);
    if (r.out.ok()) continue;
    ++failed;
    errors += (errors.empty() ? "" : "; ") +
              (r.out.error.empty() ? r.out.check.why : r.out.error);
  }
  std::vector<count_map> per_solve;
  for (auto const& r : all) per_solve.push_back(r.counts);
  auto const unstable = unstable_counts(per_solve, w->pinned_counts());
  std::string unstable_list;
  for (auto const& u : unstable)
    unstable_list += (unstable_list.empty() ? "" : ",") + quote(u);
  std::string pinned_list;
  for (auto const& p : w->pinned_counts())
    pinned_list += (pinned_list.empty() ? "" : ",") + quote(p);

  auto const times = solve_times(timed);
  std::vector<double> setups;
  for (auto const& r : timed) setups.push_back(r.setup_s);
  double const solve_s = median(times);
  double const cells_steps = w->cells() * static_cast<double>(w->steps());
  std::vector<double> glups;
  for (double t : times) glups.push_back(cells_steps / t / 1e9);

  json_object metrics;
  if (!o.trace) {
    metrics.raw("solve_s", metric(solve_s, "s", times.size()))
        .raw("glups", metric(median(glups), "GLUP/s", glups.size()))
        .raw("setup_s", metric(median(setups), "s", setups.size()))
        .raw("peak_rss_mib", metric(peak_rss_mib(), "MiB", 1))
        .raw("max_abs_err", metric(max_err, "abs", all.size()))
        .raw("fail_frac",
             metric(static_cast<double>(failed) /
                        static_cast<double>(all.size()),
                    "1", all.size()));
  } else {
    auto const lm = solve_layer_metrics(
        *w, timed, layers.at("stencil.kernel_us_per_step"));
    layers.insert(lm.begin(), lm.end());
    auto const traced_times = solve_times(traced);
    layers["trace.overhead_frac"] =
        traced_times.empty() || solve_s <= 0
            ? 0.0
            : median(traced_times) / solve_s - 1.0;
    for (auto const& [name, value] : layers)
      metrics.raw(name, metric(value, "", times.size()));
  }

  // Distribution of the solve time: median plus the highest percentile
  // with at least ten samples beyond it.
  double const tail_q =
      times.size() > 10
          ? 100.0 * static_cast<double>(times.size() - 10) /
                static_cast<double>(times.size())
          : 100.0;
  json_object details;
  details.number("solves_attempted", static_cast<double>(all.size()))
      .number("solves_failed", static_cast<double>(failed))
      .str("errors", errors)
      .str("tolerance", w->tolerance())
      .raw("pinned_counts", "[" + pinned_list + "]")
      .raw("unstable_counts", "[" + unstable_list + "]")
      .raw("counts_per_solve", counts_json(all))
      .number("solve_s_tail_q", tail_q)
      .number("solve_s_tail", percentile(times, tail_q))
      .number("solve_s_min", times.empty() ? 0 : percentile(times, 0))
      .number("traced_solves", static_cast<double>(traced.size()))
      .number("spans", static_cast<double>(spans.size()))
      .number("trace_dropped", static_cast<double>(px::trace::dropped_count()))
      .str("notes", notes);

  bool const correct = failed == 0 && unstable.empty();
  std::printf("%s\n",
              json_object()
                  .str("workload", w->name())
                  .number("seed", static_cast<double>(o.seed))
                  .number("trace", o.trace ? 1 : 0)
                  .raw("correct", correct ? "true" : "false")
                  .number("attempted", static_cast<double>(all.size()))
                  .number("failed", static_cast<double>(failed))
                  .raw("metrics", metrics.done())
                  .raw("details", details.done())
                  .raw("host", host_json(*w))
                  .done()
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pxbench

int main(int argc, char** argv) {
  pxbench::options o;
  if (!pxbench::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: pxbench_run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  return pxbench::run(o);
}
