// Tests for the MNA AC simulator against hand-computable circuits:
// dividers, RC poles, controlled sources, and the measurement block
// (gain / UGF / phase margin).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "spice/measure.h"
#include "spice/mna.h"
#include "spice/netlist.h"

namespace easybo::spice {
namespace {

TEST(Netlist, NodeNamingAndGround) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  const auto a = c.node("a");
  EXPECT_EQ(c.node("a"), a);  // idempotent
  const auto b = c.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(c.num_nodes(), 3u);
}

TEST(Netlist, RejectsBadElements) {
  Circuit c;
  const auto a = c.node("a");
  EXPECT_THROW(c.add_resistor(a, kGround, 0.0), InvalidArgument);
  EXPECT_THROW(c.add_resistor(a, 99, 1.0), InvalidArgument);
  EXPECT_THROW(c.add_capacitor(a, kGround, -1e-12), InvalidArgument);
}

TEST(SolveAc, ResistiveDivider) {
  Circuit c;
  const auto in = c.node("in");
  const auto mid = c.node("mid");
  c.add_voltage_source(in, kGround, 1.0);
  c.add_resistor(in, mid, 3e3);
  c.add_resistor(mid, kGround, 1e3);
  const auto sol = solve_ac(c, 1e3);
  EXPECT_NEAR(std::abs(sol.v(mid)), 0.25, 1e-12);
  EXPECT_NEAR(std::abs(sol.v(in)), 1.0, 1e-12);
}

TEST(SolveAc, VoltageSourceBranchCurrent) {
  Circuit c;
  const auto in = c.node("in");
  c.add_voltage_source(in, kGround, 10.0);
  c.add_resistor(in, kGround, 2.0);
  const auto sol = solve_ac(c, 0.0);
  ASSERT_EQ(sol.branch_current.size(), 1u);
  // Current through the source: 5 A (sign: branch current flows p -> n
  // through the source, i.e. out of the + terminal through the circuit).
  EXPECT_NEAR(std::abs(sol.branch_current[0]), 5.0, 1e-12);
}

TEST(SolveAc, RcLowPassPole) {
  // R = 1k, C = 1uF -> fc = 1/(2 pi RC) ~ 159.15 Hz.
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_voltage_source(in, kGround, 1.0);
  c.add_resistor(in, out, 1e3);
  c.add_capacitor(out, kGround, 1e-6);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-6);

  // At fc: magnitude 1/sqrt(2), phase -45 deg.
  const auto sol = solve_ac(c, fc);
  EXPECT_NEAR(std::abs(sol.v(out)), 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(std::arg(sol.v(out)) * 180.0 / std::numbers::pi, -45.0, 1e-6);

  // A decade above: ~ -20 dB.
  const auto sol10 = solve_ac(c, 10.0 * fc);
  EXPECT_NEAR(20.0 * std::log10(std::abs(sol10.v(out))), -20.04, 0.05);
}

TEST(SolveAc, VccsAmplifierGain) {
  // Common-source stage: gm = 2 mS into RL = 5 kOhm -> |gain| = 10.
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_voltage_source(in, kGround, 1.0);
  c.add_vccs(out, kGround, in, kGround, 2e-3);
  c.add_resistor(out, kGround, 5e3);
  const auto sol = solve_ac(c, 1.0);
  EXPECT_NEAR(std::abs(sol.v(out)), 10.0, 1e-9);
  // Inverting: current pulled OUT of the output node for positive vin.
  EXPECT_NEAR(sol.v(out).real(), -10.0, 1e-9);
}

TEST(SolveAc, FloatingNodeIsSingular) {
  Circuit c;
  c.node("floating");
  EXPECT_THROW(solve_ac(c, 1.0), NumericalError);
}

TEST(LogFrequencyGrid, SpansAndOrders) {
  const auto f = log_frequency_grid(10.0, 1e6, 10);
  EXPECT_DOUBLE_EQ(f.front(), 10.0);
  EXPECT_DOUBLE_EQ(f.back(), 1e6);
  EXPECT_EQ(f.size(), 51u);  // 5 decades * 10 + 1
  for (std::size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
  EXPECT_THROW(log_frequency_grid(0.0, 1e3, 10), InvalidArgument);
  EXPECT_THROW(log_frequency_grid(1e3, 1e2, 10), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Measurements on a synthetic single-pole amplifier
// ---------------------------------------------------------------------------

AcSweep single_pole_amp(double a0, double fp, double f_lo, double f_hi) {
  // H(f) = a0 / (1 + j f/fp), computed analytically.
  AcSweep sweep;
  for (double f : log_frequency_grid(f_lo, f_hi, 40)) {
    const Complex h = a0 / Complex(1.0, f / fp);
    sweep.points.push_back({f, h});
  }
  return sweep;
}

TEST(Measure, SinglePoleGainUgfPm) {
  // a0 = 1000 (60 dB), pole at 1 kHz -> UGF ~ a0 * fp = 1 MHz, PM ~ 90 deg.
  const auto sweep = single_pole_amp(1000.0, 1e3, 10.0, 1e8);
  const auto m = measure_open_loop(sweep);
  EXPECT_NEAR(m.dc_gain_db, 60.0, 0.01);
  ASSERT_TRUE(m.has_ugf);
  EXPECT_NEAR(m.ugf_hz / 1e6, 1.0, 0.01);
  EXPECT_NEAR(m.phase_margin_deg, 90.0, 0.5);
}

TEST(Measure, TwoPolePhaseMargin) {
  // Second pole exactly at the UGF adds 45 deg of phase: PM ~ 45 deg.
  AcSweep sweep;
  const double a0 = 1000.0, fp1 = 1e3, fp2 = 1e6;
  for (double f : log_frequency_grid(10.0, 1e8, 60)) {
    const Complex h =
        a0 / (Complex(1.0, f / fp1) * Complex(1.0, f / fp2));
    sweep.points.push_back({f, h});
  }
  const auto m = measure_open_loop(sweep);
  ASSERT_TRUE(m.has_ugf);
  // Exact: |H(u)| = 1 -> a0^2 = (1+(u/fp1)^2)(1+(u/fp2)^2); PM follows
  // from the two-pole phase at that crossing.
  const double u = m.ugf_hz;
  EXPECT_NEAR(a0 * a0,
              (1 + std::pow(u / fp1, 2)) * (1 + std::pow(u / fp2, 2)),
              0.05 * a0 * a0);
  const double expected_pm =
      180.0 - (std::atan(u / fp1) + std::atan(u / fp2)) * 180.0 /
                  std::numbers::pi;
  EXPECT_NEAR(m.phase_margin_deg, expected_pm, 1.0);
}

TEST(Measure, InvertingAmpSamePm) {
  // Multiply H by -1 (DC phase 180): PM relative to DC must not change.
  const auto sweep = single_pole_amp(1000.0, 1e3, 10.0, 1e8);
  AcSweep inverted = sweep;
  for (auto& p : inverted.points) p.value = -p.value;
  const auto m1 = measure_open_loop(sweep);
  const auto m2 = measure_open_loop(inverted);
  EXPECT_NEAR(m1.phase_margin_deg, m2.phase_margin_deg, 1e-6);
  EXPECT_NEAR(m1.ugf_hz, m2.ugf_hz, 1e-6);
}

TEST(Measure, NoUgfWhenGainBelowUnity) {
  const auto sweep = single_pole_amp(0.5, 1e3, 10.0, 1e6);
  const auto m = measure_open_loop(sweep);
  EXPECT_FALSE(m.has_ugf);
  EXPECT_DOUBLE_EQ(m.ugf_hz, 0.0);
  EXPECT_FALSE(unity_gain_frequency(sweep).has_value());
}

TEST(Measure, UnwrapRemovesJumps) {
  // Three-pole response sweeps phase through -270: raw phase wraps, the
  // unwrapped series must be monotone (no +360 jumps).
  AcSweep sweep;
  for (double f : log_frequency_grid(1.0, 1e9, 30)) {
    Complex h = 1e5 / (Complex(1.0, f / 1e2) * Complex(1.0, f / 1e4) *
                       Complex(1.0, f / 1e6));
    sweep.points.push_back({f, h});
  }
  const auto phase = unwrapped_phase_deg(sweep);
  for (std::size_t i = 1; i < phase.size(); ++i) {
    EXPECT_LT(phase[i], phase[i - 1] + 1.0);  // monotonically falling
  }
  EXPECT_NEAR(phase.back(), -270.0, 5.0);
}

TEST(Measure, RejectsDegenerateSweeps) {
  AcSweep empty;
  EXPECT_THROW(dc_gain_db(empty), InvalidArgument);
  AcSweep one;
  one.points.push_back({1.0, Complex(1.0, 0.0)});
  EXPECT_THROW(measure_open_loop(one), InvalidArgument);
}

TEST(AcPoint, DbAndPhaseHelpers) {
  AcPoint p{1.0, Complex(0.0, 10.0)};
  EXPECT_NEAR(p.magnitude_db(), 20.0, 1e-12);
  EXPECT_NEAR(p.phase_deg(), 90.0, 1e-12);
}

}  // namespace
}  // namespace easybo::spice
