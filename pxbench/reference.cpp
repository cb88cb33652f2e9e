// pxbench/reference.cpp — the shared-memory workload's reference solve.
// Built without -ffast-math (see CMakeLists.txt), so the check compares the
// fast-math VNS solve against IEEE f32 arithmetic.
#include "bench.hpp"
#include "px/lcos/async.hpp"
#include "px/stencil/jacobi2d_vns.hpp"

namespace pxbench {

std::vector<float> reference_jacobi_f32(std::vector<float> const& interior,
                                        std::size_t nx, std::size_t ny,
                                        std::size_t steps,
                                        std::size_t workers) {
  px::scheduler_config sc;
  sc.num_workers = workers;
  px::runtime rt(sc);
  return px::sync_wait(rt, [&] {
    px::stencil::field2d<float> init(nx, ny);
    px::stencil::init_dirichlet_problem(init);
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        init.set(x, y, interior[y * nx + x]);
    return px::stencil::run_jacobi2d_auto<float>(px::execution::par, init,
                                                 steps)
        .interior;
  });
}

}  // namespace pxbench
