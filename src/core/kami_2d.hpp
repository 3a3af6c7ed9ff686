// KAMI-2D (Algorithm 2).
//
// p warps form a sqrt(p) x sqrt(p) grid; warp (r, c) holds A's block (r, c)
// of size (m/sqrt(p) x k/sqrt(p)) and B's block (r, c) of size
// (k/sqrt(p) x n/sqrt(p)). The multiplication runs in sqrt(p) SUMMA-style
// stages: at stage z the z-th grid *column* broadcasts its A blocks along
// each row and the z-th grid *row* broadcasts its B blocks along each
// column, all through shared memory; every warp then multiplies its
// received pair and accumulates C(r, c).
#pragma once

#include <optional>
#include <vector>

#include "core/gemm.hpp"
#include "core/numeric_path.hpp"
#include "core/planner.hpp"
#include "core/sliced_operand.hpp"
#include "model/cost_model.hpp"
#include "sim/block.hpp"

namespace kami::core {

template <Scalar T>
GemmResult<T> kami_2d_gemm(const sim::DeviceSpec& dev, const Matrix<T>& A,
                           const Matrix<T>& B, const GemmOptions& opt = {}) {
  using Acc = typename num_traits<T>::acc_t;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");

  const Plan plan = plan_gemm(Algo::TwoD, dev, num_traits<T>::precision, m, n, k, opt);
  observe_launch(plan);

  // NumericsOnly: SUMMA stages cover k in ascending order, so each element
  // is one sequential-k chain — same as the plain numeric path.
  if (opt.mode == sim::ExecMode::NumericsOnly)
    return {numeric_gemm(A, B), {}, plan.p, plan.smem_ratio, nullptr, nullptr};

  const auto p = static_cast<std::size_t>(plan.p);
  const auto q = static_cast<std::size_t>(plan.grid);
  const std::size_t mb = m / q, nb = n / q, kb = k / q;
  const std::size_t slices = kb / plan.slice_w;

  sim::ThreadBlock blk(dev, plan.p, opt.mode);
  blk.set_deadline(opt.deadline_cycles);
  if (opt.record_trace) blk.enable_trace();

  const auto row_of = [&](std::size_t id) { return id / q; };
  const auto col_of = [&](std::size_t id) { return id % q; };

  std::vector<SlicedOperand<T>> Aop, Bop;
  std::vector<sim::Fragment<Acc>> Ci;
  std::vector<sim::Fragment<T>> ARecv, BRecv;
  Aop.reserve(p);
  Bop.reserve(p);
  Ci.reserve(p);
  ARecv.reserve(p);
  BRecv.reserve(p);

  // Optional phase spans on the block's simulated clock, rooted at the kernel.
  std::optional<obs::TraceBuilder> phases;
  if (opt.record_regions) phases.emplace("kami_2d", "kami_2d", blk.cycles());
  obs::TraceBuilder* tb = phases ? &*phases : nullptr;
  {
    obs::ScopedSpan r_setup(tb, blk, "setup");
    blk.phase([&](sim::Warp& w) {
      w.set_gmem_charging(opt.charge_global_io);
      const auto i = static_cast<std::size_t>(w.id());
      const std::size_t r = row_of(i), c = col_of(i);
      Aop.emplace_back(w, blk.smem(), plan.a, A, r * mb, c * kb);
      Bop.emplace_back(w, blk.smem(), plan.b, B, r * kb, c * nb);
      Ci.emplace_back(w.regs(), mb, nb);
      ARecv.emplace_back(w.regs(), plan.a.slice_rows(), plan.a.slice_cols());
      BRecv.emplace_back(w.regs(), plan.b.slice_rows(), plan.b.slice_cols());
    });
    blk.sync();
  }

  // One A buffer per grid row and one B buffer per grid column.
  std::vector<sim::SmemTile<T>> SmA, SmB;
  for (std::size_t g = 0; g < q; ++g) {
    SmA.push_back(blk.smem().alloc<T>(plan.a.slice_rows(), plan.a.slice_cols()));
    SmB.push_back(blk.smem().alloc<T>(plan.b.slice_rows(), plan.b.slice_cols()));
  }

  for (std::size_t z = 0; z < q; ++z) {
    for (std::size_t s = 0; s < slices; ++s) {
      const bool a_res = plan.a.is_resident(s);
      const bool b_res = plan.b.is_resident(s);

      // Write phase (lines 5-10): column-z warps publish A, row-z warps
      // publish B; owners also stage their own copies (Reg2Reg).
      obs::ScopedSpan r_w(tb, blk, "broadcast_write");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        const std::size_t r = row_of(i), c = col_of(i);
        if (c == z) {
          if (a_res) w.store_smem(SmA[r], Aop[i].resident_slice(s), opt.theta_w);
          Aop[i].fetch_slice(w, s, ARecv[i], opt.theta_r);
        }
        if (r == z) {
          if (b_res) w.store_smem(SmB[c], Bop[i].resident_slice(s), opt.theta_w);
          Bop[i].fetch_slice(w, s, BRecv[i], opt.theta_r);
        }
      });
      blk.sync();
      r_w.close();

      // Read phase (lines 12-15).
      obs::ScopedSpan r_r(tb, blk, "broadcast_read");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        const std::size_t r = row_of(i), c = col_of(i);
        if (c != z) {
          const std::size_t owner = r * q + z;
          if (a_res) {
            w.load_smem(ARecv[i], SmA[r], opt.theta_r);
          } else {
            w.load_smem(ARecv[i], Aop[owner].spilled_slice(s), opt.theta_r);
          }
        }
        if (r != z) {
          const std::size_t owner = z * q + c;
          if (b_res) {
            w.load_smem(BRecv[i], SmB[c], opt.theta_r);
          } else {
            w.load_smem(BRecv[i], Bop[owner].spilled_slice(s), opt.theta_r);
          }
        }
      });
      blk.sync();
      r_r.close();

      // Compute phase (line 17).
      obs::ScopedSpan r_c(tb, blk, "compute");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        w.mma(Ci[i], ARecv[i].view(), BRecv[i].view());
      });
      blk.sync();
    }
  }

  GemmResult<T> out{Matrix<T>(m, n), {}, plan.p, plan.smem_ratio, nullptr, nullptr};
  {
    obs::ScopedSpan r(tb, blk, "writeback");
    blk.phase([&](sim::Warp& w) {
      const auto i = static_cast<std::size_t>(w.id());
      w.store_global_narrowed(out.C, Ci[i], row_of(i) * mb, col_of(i) * nb);
    });
    blk.sync();
  }

  out.profile = sim::profile_block(blk, model::gemm_flops(m, n, k));
  if (opt.record_trace) out.trace = blk.take_trace();
  if (phases) {
    phases->advance_to(blk.cycles());
    out.regions = std::make_shared<obs::RequestTrace>(phases->finish());
  }
  return out;
}

}  // namespace kami::core
