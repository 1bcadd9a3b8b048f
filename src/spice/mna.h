#pragma once
/// \file mna.h
/// \brief Modified nodal analysis: single-frequency solve and AC sweeps.
///
/// For a circuit with N-1 non-ground nodes and M group-2 branches (the
/// voltage sources), the MNA system at angular frequency w is the
/// (N-1+M) x (N-1+M) complex linear system
///     [ G + jwC   B ] [ v ]   [   0   ]
///     [ D         0 ] [ i ] = [ v_src ]
/// assembled by stamping each element, then solved by complex LU with
/// partial pivoting (linalg/lu.h).

#include <complex>
#include <vector>

#include "spice/netlist.h"

namespace easybo::spice {

using Complex = std::complex<double>;

/// Solution of one frequency point: node voltages indexed by NodeId
/// (entry [kGround] is always 0) and the voltage sources' branch currents,
/// in the order they were added.
struct AcSolution {
  std::vector<Complex> node_voltage;
  std::vector<Complex> branch_current;

  Complex v(NodeId n) const { return node_voltage[n]; }

  /// Differential voltage v(p) - v(n).
  Complex v(NodeId p, NodeId n) const {
    return node_voltage[p] - node_voltage[n];
  }
};

/// Solves the circuit at one frequency (hertz). Throws NumericalError when
/// the MNA matrix is singular (e.g. a floating node).
AcSolution solve_ac(const Circuit& circuit, double freq_hz);

/// One probed transfer-function point.
struct AcPoint {
  double freq_hz;
  Complex value;

  double magnitude() const { return std::abs(value); }
  double magnitude_db() const;
  /// Phase in degrees, principal value (-180, 180].
  double phase_deg() const;
};

/// A swept transfer function at a probe node (or differential pair).
struct AcSweep {
  std::vector<AcPoint> points;

  bool empty() const { return points.empty(); }
  std::size_t size() const { return points.size(); }
};

/// Logarithmically spaced frequency grid from f_start to f_stop (inclusive)
/// with points_per_decade points per decade. Requires 0 < f_start < f_stop.
std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       std::size_t points_per_decade);

/// Runs a sweep probing v(probe_p) - v(probe_n) at each frequency.
AcSweep sweep_ac(const Circuit& circuit, const std::vector<double>& freqs,
                 NodeId probe_p, NodeId probe_n = kGround);

}  // namespace easybo::spice
