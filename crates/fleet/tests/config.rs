//! Fleet configuration errors: a fleet the runners cannot replay is
//! rejected up front, never panicked on or vacuously passed.

use fleet::{run_fleet, run_fleet_soak, FleetConfig, FleetWorkload};
use ftl::{FtlConfig, FtlError};
use host::Arbitration;

fn config_with_devices(devices: usize) -> FleetConfig {
    let mut workload = FleetWorkload::new(4, 1);
    // The field is public, so a caller can empty the fleet after building it.
    workload.devices = devices;
    FleetConfig {
        device_config: FtlConfig::small_test(),
        workload,
        fleet_seed: 1,
        arbitration: Arbitration::WeightedRoundRobin,
        workers: 1,
    }
}

#[test]
fn zero_devices_is_an_invalid_config_for_both_runners() {
    let config = config_with_devices(0);
    assert!(matches!(run_fleet(&config), Err(FtlError::InvalidConfig { .. })));
    assert!(matches!(run_fleet_soak(&config), Err(FtlError::InvalidConfig { .. })));
}
