#include "spice/netlist.h"

#include "common/error.h"

namespace easybo::spice {

Circuit::Circuit() {
  names_["0"] = kGround;
  names_["gnd"] = kGround;
}

NodeId Circuit::node(const std::string& name) {
  auto [it, inserted] = names_.try_emplace(name, num_nodes_);
  if (inserted) ++num_nodes_;
  return it->second;
}

NodeId Circuit::check_node(NodeId n) const {
  EASYBO_REQUIRE(n < num_nodes_, "element references unknown node");
  return n;
}

void Circuit::add_resistor(NodeId a, NodeId b, double ohms) {
  EASYBO_REQUIRE(ohms > 0.0, "resistance must be positive");
  passives_.push_back({PassiveKind::Resistor, check_node(a), check_node(b),
                       ohms});
}

void Circuit::add_capacitor(NodeId a, NodeId b, double farads) {
  EASYBO_REQUIRE(farads >= 0.0, "capacitance must be non-negative");
  passives_.push_back({PassiveKind::Capacitor, check_node(a), check_node(b),
                       farads});
}

void Circuit::add_vccs(NodeId out_p, NodeId out_n, NodeId ctrl_p,
                       NodeId ctrl_n, double gm) {
  vccs_.push_back({check_node(out_p), check_node(out_n), check_node(ctrl_p),
                   check_node(ctrl_n), gm});
}

void Circuit::add_voltage_source(NodeId p, NodeId n,
                                 std::complex<double> volts) {
  vsources_.push_back({check_node(p), check_node(n), volts});
}

}  // namespace easybo::spice
