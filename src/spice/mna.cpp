#include "spice/mna.h"

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "linalg/lu.h"

namespace easybo::spice {

namespace {

/// Dense complex MNA assembler. Unknown ordering: non-ground node voltages
/// (node k maps to row k-1), then group-2 branch currents.
class Assembler {
 public:
  Assembler(const Circuit& c, double omega)
      : num_nodes_(c.num_nodes()),
        n_(c.num_nodes() - 1 + c.num_branch_unknowns()),
        a_(n_ * n_, Complex(0.0, 0.0)),
        rhs_(n_, Complex(0.0, 0.0)) {
    const Complex jw(0.0, omega);

    for (const auto& p : c.passives()) {
      Complex y;
      switch (p.kind) {
        case PassiveKind::Resistor:
          y = Complex(1.0 / p.value, 0.0);
          break;
        case PassiveKind::Capacitor:
          y = jw * p.value;
          break;
      }
      stamp_admittance(p.a, p.b, y);
    }

    for (const auto& g : c.vccs()) {
      stamp_vccs(g.out_p, g.out_n, g.ctrl_p, g.ctrl_n, g.gm);
    }

    std::size_t branch = num_nodes_ - 1;  // first group-2 row
    for (const auto& v : c.voltage_sources()) {
      stamp_branch_kcl(v.p, v.n, branch);
      stamp_branch_voltage(branch, v.p, v.n);
      rhs_[branch] = v.value;
      ++branch;
    }
  }

  AcSolution solve() && {
    linalg::LuComplex lu(std::move(a_), n_);
    const auto x = lu.solve(rhs_);
    AcSolution sol;
    sol.node_voltage.assign(num_nodes_, Complex(0.0, 0.0));
    for (NodeId k = 1; k < num_nodes_; ++k) sol.node_voltage[k] = x[k - 1];
    sol.branch_current.assign(x.begin() + static_cast<std::ptrdiff_t>(
                                              num_nodes_ - 1),
                              x.end());
    return sol;
  }

 private:
  // Row index of a non-ground node. Must not be called with kGround.
  std::size_t node_row(NodeId n) const { return n - 1; }

  void add(std::size_t r, std::size_t c, Complex v) {
    a_[r * n_ + c] += v;
  }

  void stamp_admittance(NodeId a, NodeId b, Complex y) {
    if (a != kGround) add(node_row(a), node_row(a), y);
    if (b != kGround) add(node_row(b), node_row(b), y);
    if (a != kGround && b != kGround) {
      add(node_row(a), node_row(b), -y);
      add(node_row(b), node_row(a), -y);
    }
  }

  void stamp_vccs(NodeId op, NodeId on, NodeId cp, NodeId cn, double gm) {
    const Complex g(gm, 0.0);
    if (op != kGround && cp != kGround) add(node_row(op), node_row(cp), g);
    if (op != kGround && cn != kGround) add(node_row(op), node_row(cn), -g);
    if (on != kGround && cp != kGround) add(node_row(on), node_row(cp), -g);
    if (on != kGround && cn != kGround) add(node_row(on), node_row(cn), g);
  }

  // KCL contribution of a branch current flowing p -> n through the element.
  void stamp_branch_kcl(NodeId p, NodeId n, std::size_t branch) {
    if (p != kGround) add(node_row(p), branch, Complex(1.0, 0.0));
    if (n != kGround) add(node_row(n), branch, Complex(-1.0, 0.0));
  }

  // Branch voltage equation row: +v(p) - v(n) = rhs.
  void stamp_branch_voltage(std::size_t branch, NodeId p, NodeId n) {
    if (p != kGround) add(branch, node_row(p), Complex(1.0, 0.0));
    if (n != kGround) add(branch, node_row(n), Complex(-1.0, 0.0));
  }

  std::size_t num_nodes_;
  std::size_t n_;
  std::vector<Complex> a_;
  std::vector<Complex> rhs_;
};

}  // namespace

AcSolution solve_ac(const Circuit& circuit, double freq_hz) {
  EASYBO_REQUIRE(freq_hz >= 0.0, "frequency must be non-negative");
  EASYBO_REQUIRE(circuit.num_nodes() > 1, "circuit has no non-ground nodes");
  const double omega = 2.0 * std::numbers::pi * freq_hz;
  return Assembler(circuit, omega).solve();
}

double AcPoint::magnitude_db() const {
  return 20.0 * std::log10(std::max(std::abs(value), 1e-300));
}

double AcPoint::phase_deg() const {
  return std::arg(value) * 180.0 / std::numbers::pi;
}

std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       std::size_t points_per_decade) {
  EASYBO_REQUIRE(f_start > 0.0 && f_stop > f_start,
                 "log grid requires 0 < f_start < f_stop");
  EASYBO_REQUIRE(points_per_decade >= 1, "need at least one point per decade");
  const double decades = std::log10(f_stop / f_start);
  const auto n = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(points_per_decade))) + 1;
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(n - 1);
    freqs[i] = f_start * std::pow(10.0, frac * decades);
  }
  freqs.back() = f_stop;
  return freqs;
}

AcSweep sweep_ac(const Circuit& circuit, const std::vector<double>& freqs,
                 NodeId probe_p, NodeId probe_n) {
  AcSweep sweep;
  sweep.points.reserve(freqs.size());
  for (double f : freqs) {
    const AcSolution sol = solve_ac(circuit, f);
    sweep.points.push_back({f, sol.v(probe_p, probe_n)});
  }
  return sweep;
}

}  // namespace easybo::spice
