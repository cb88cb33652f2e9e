// pxbench/selftest.cpp — the benchmark's own tests: the output check and
// the exact-count check must fire on corrupted input, and must pass on a
// real distributed solve. Run by `python3 pxbench/run.py --self-test` (or
// ctest in the benchmark's build directory); exit code 0 when all pass.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/reference.hpp"

namespace {

int failures = 0;

void expect(bool cond, char const* what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

void real_solve_then_corrupt() {
  px::dist::domain_config cfg;
  cfg.num_localities = 3;
  cfg.locality_cfg.num_workers = 1;
  cfg.injection_scale = 0.0;
  px::dist::distributed_domain dom(cfg);
  auto const initial = px::stencil::heat1d_sine_initial(3000);
  px::stencil::dist_heat_config hc;
  hc.nx_total = initial.size();
  hc.steps = 50;
  auto got = px::stencil::run_distributed_heat1d(dom, initial, hc).values;
  auto const ref = px::stencil::reference_heat1d(initial, hc.steps, hc.k);

  auto const clean = pxbench::check_bitwise(got, ref);
  expect(clean.ok && clean.max_abs_err == 0.0,
         "distributed heat solve matches its reference bitwise");

  got[1500] = std::nextafter(got[1500], 2.0);  // one ulp
  auto const corrupt = pxbench::check_bitwise(got, ref);
  expect(!corrupt.ok && corrupt.max_abs_err > 0.0 &&
             corrupt.why.find("element 1500") == 0,
         "one-ulp corruption fails the bitwise check at its index");

  got[1500] = std::numeric_limits<double>::quiet_NaN();
  expect(!pxbench::check_bitwise(got, ref).ok, "NaN fails the bitwise check");
  expect(!pxbench::check_within(got, ref, 1.0).ok,
         "NaN fails the tolerance check");

  got.pop_back();
  auto const shorter = pxbench::check_bitwise(got, ref);
  expect(!shorter.ok && std::isinf(shorter.max_abs_err),
         "a truncated result fails the check");
}

void tolerance_check() {
  std::vector<float> const ref(1000, 1.0f);
  auto got = ref;
  got[10] += 5e-6f;
  expect(pxbench::check_within(got, ref, 1e-5).ok,
         "an error below the f32 tolerance passes");
  got[20] += 1e-3f;
  auto const r = pxbench::check_within(got, ref, 1e-5);
  expect(!r.ok && std::abs(r.max_abs_err - 1e-3) < 1e-5,
         "an error above the f32 tolerance fails and is measured");
}

void count_checks() {
  pxbench::count_map const a{{"frames", 10}, {"drops", 3}};
  auto b = a;
  expect(pxbench::unstable_counts({a, a, a}, {"frames", "drops"}).empty(),
         "identical counts pass");
  b["drops"] = 4;
  auto const bad = pxbench::unstable_counts({a, b, a}, {"frames", "drops"});
  expect(bad.size() == 1 && bad.front() == "drops",
         "one differing pinned count is reported by name");

  px::counters::snapshot s;
  s.samples = {{"/px/net/frames_on_wire", px::counters::kind::monotone, 7},
               {"/px/scheduler{loc0/worker#0}/busy_ns",
                px::counters::kind::monotone, 5},
               {"/px/scheduler{loc1/worker#0}/busy_ns",
                px::counters::kind::monotone, 6},
               {"/px/scheduler{loc1/worker#0}/steals",
                px::counters::kind::monotone, 2}};
  auto const c = pxbench::solve_counts(s);
  expect(c.at("frames") == 7 && c.at("busy_ns") == 11 && c.at("steals") == 2,
         "per-solve counts sum every worker of every locality");
}

}  // namespace

int main() {
  real_solve_then_corrupt();
  tolerance_check();
  count_checks();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
