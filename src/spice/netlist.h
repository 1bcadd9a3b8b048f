#pragma once
/// \file netlist.h
/// \brief Small-signal netlist description for the MNA AC simulator.
///
/// This is the substrate that stands in for HSPICE in the reproduction: a
/// linear(ized) circuit made of resistors, capacitors, voltage-controlled
/// current sources (transistor transconductance) and independent voltage
/// sources, analyzed in the frequency domain via modified nodal analysis
/// (see mna.h). It is deliberately small-signal only — the op-amp
/// benchmark linearizes its transistors around a DC operating point
/// computed analytically in src/circuit.

#include <complex>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace easybo::spice {

/// Node identifier; kGround (node 0) is the reference node.
using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

/// Two-terminal passive element kinds.
enum class PassiveKind { Resistor, Capacitor };

struct Passive {
  PassiveKind kind;
  NodeId a;
  NodeId b;
  double value;  ///< ohms / farads
};

/// Voltage-controlled current source: i(out_p -> out_n) = gm * v(ctrl_p,
/// ctrl_n). This is the element that carries transistor transconductance.
struct Vccs {
  NodeId out_p;
  NodeId out_n;
  NodeId ctrl_p;
  NodeId ctrl_n;
  double gm;  ///< siemens
};

/// Independent AC voltage source (group-2 element).
struct VoltageSource {
  NodeId p;
  NodeId n;
  std::complex<double> value;
};

/// A linear small-signal circuit under construction.
///
/// Typical use:
///   Circuit c;
///   auto in  = c.node("in");
///   auto out = c.node("out");
///   c.add_resistor(out, kGround, 10e3);
///   c.add_vccs(out, kGround, in, kGround, 1e-3);
///   c.add_voltage_source(in, kGround, 1.0);
///   AcSweep sweep = analyze_ac(c, frequencies, out);
class Circuit {
 public:
  Circuit();

  /// Returns the id for a named node, creating it on first use.
  /// The name "0" (and "gnd") maps to the ground node.
  NodeId node(const std::string& name);

  /// Number of nodes including ground.
  std::size_t num_nodes() const { return num_nodes_; }

  void add_resistor(NodeId a, NodeId b, double ohms);
  void add_capacitor(NodeId a, NodeId b, double farads);
  void add_vccs(NodeId out_p, NodeId out_n, NodeId ctrl_p, NodeId ctrl_n,
                double gm);
  void add_voltage_source(NodeId p, NodeId n, std::complex<double> volts);

  const std::vector<Passive>& passives() const { return passives_; }
  const std::vector<Vccs>& vccs() const { return vccs_; }
  const std::vector<VoltageSource>& voltage_sources() const {
    return vsources_;
  }

  /// Number of group-2 (branch-current) unknowns: one per V source.
  std::size_t num_branch_unknowns() const { return vsources_.size(); }

 private:
  NodeId check_node(NodeId n) const;

  std::size_t num_nodes_ = 1;  // ground pre-exists
  std::unordered_map<std::string, NodeId> names_;
  std::vector<Passive> passives_;
  std::vector<Vccs> vccs_;
  std::vector<VoltageSource> vsources_;
};

}  // namespace easybo::spice
