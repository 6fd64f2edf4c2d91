// Table I — configurations of the experimental devices.
//
// The paper's Table I lists the physical testbed (OVS PC, Floodlight PC,
// hosts, 100 Mbps interfaces). This binary prints the simulated equivalents:
// the platform parameters and the calibrated cost models every other bench
// runs on, so a reader can map each simulated device to Table I.
#include <iostream>

#include "common.hpp"
#include "core/fabric_testbed.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace sdnbuf;
  (void)bench::parse_options(argc, argv);

  const core::FabricConfig config = core::chain_fabric(1);
  const sw::SwitchConfig& sw_config = config.switch_config;
  const ctrl::ControllerConfig& ctrl_config = config.controller_config;

  util::TableWriter table("Table I: simulated experimental platform (cf. paper Table I)");
  table.set_columns({"device", "parameter", "value"});
  table.add_row({"OVS switch", "CPU cores", std::to_string(sw_config.cpu_cores)});
  table.add_row({"OVS switch", "flow table capacity",
                 std::to_string(sw_config.flow_table_capacity) + " rules"});
  table.add_row({"OVS switch", "ASIC<->CPU bus",
                 util::format_rate_bps(sw_config.costs.bus_bandwidth_bps)});
  table.add_row({"OVS switch", "miss_send_len",
                 std::to_string(sw_config.miss_send_len) + " B"});
  table.add_row({"OVS switch", "buffer reclaim delay",
                 sw_config.costs.buffer_reclaim_delay.to_string()});
  table.add_row({"OVS switch", "buffered packet expiry",
                 sw_config.costs.buffer_expiry.to_string()});
  table.add_row({"Floodlight", "CPU cores", std::to_string(ctrl_config.cpu_cores)});
  table.add_row({"Floodlight", "reactive rule idle timeout",
                 std::to_string(ctrl_config.rule_idle_timeout_s) + " s"});
  table.add_row({"Host1/Host2", "access links",
                 util::format_rate_bps(config.host_link_mbps * 1e6) + " / " +
                     config.link_delay.to_string() + " delay"});
  table.add_row({"control path", "link",
                 util::format_rate_bps(config.control_link_mbps * 1e6) + " / " +
                     config.control_link_delay.to_string() + " delay"});
  table.add_row({"pktgen", "frame size", "1000 B"});
  table.add_row({"pktgen", "sending rates", "5 - 100 Mbps"});
  table.print(std::cout);

  std::cout << "\nSwitch cost model (us unless noted): asic_match="
            << sw_config.costs.asic_match_us << " miss_base=" << sw_config.costs.miss_base_us
            << " pkt_in=" << sw_config.costs.pkt_in_base_us << "+"
            << sw_config.costs.pkt_in_per_byte_us << "/B"
            << " buffer_store=" << sw_config.costs.buffer_store_us
            << " buffer_release=" << sw_config.costs.buffer_release_us
            << " flow_mod=" << sw_config.costs.flow_mod_install_us
            << " pkt_out=" << sw_config.costs.pkt_out_base_us << "+"
            << sw_config.costs.pkt_out_per_byte_us << "/B"
            << " map_lookup=" << sw_config.costs.flow_map_lookup_us
            << " map_store=" << sw_config.costs.flow_map_store_us << '\n';
  std::cout << "Controller cost model (us): parse=" << ctrl_config.costs.parse_base_us << "+"
            << ctrl_config.costs.parse_per_byte_us << "/B"
            << " decision=" << ctrl_config.costs.decision_us
            << " encode_flow_mod=" << ctrl_config.costs.encode_flow_mod_us
            << " encode_pkt_out=" << ctrl_config.costs.encode_pkt_out_base_us << "+"
            << ctrl_config.costs.encode_pkt_out_per_byte_us << "/B" << '\n';
  return 0;
}
