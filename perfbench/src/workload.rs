//! The three traffic shapes, how each run is sized, and the property each
//! shape was chosen for (its guard).

use tagio_online::fleet::FleetConfig;
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};

/// Fleet partitions in every workload.
const PARTITIONS: u32 = 4;

/// Seed of the fixed pool of base fleets.
const BASE_POOL: u64 = 0x7a61_6f31;

/// The fleet's worker pool width. One lane: the driver thread runs every
/// partition's admission inline, so no epoch waits on a parked worker's
/// wake-up, and on a few shared cores the runs measure the program rather
/// than the host's scheduler.
pub const POOL_WIDTH: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated best-effort tenant: the router's quota gate decides
    /// every arrival, so the cost is routing, commit and the journal.
    QuotaFlood,
    /// Near-full untenanted partitions: most gate-passing offers fail
    /// every ladder tier on both partitions they are offered to.
    IntegrationWall,
    /// Light load with churn, spikes, deaths, a mode change and Zipf
    /// tenants with burst storms: the ladder mostly succeeds.
    MixedChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "quota-flood" => Some(Workload::QuotaFlood),
            "integration-wall" => Some(Workload::IntegrationWall),
            "mixed-churn" => Some(Workload::MixedChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuotaFlood => "quota-flood",
            Workload::IntegrationWall => "integration-wall",
            Workload::MixedChurn => "mixed-churn",
        }
    }

    /// Arrivals per generated scenario.
    fn arrivals(self) -> usize {
        match self {
            Workload::QuotaFlood => 2048,
            Workload::IntegrationWall => 64,
            // One death after arrival 256, the mode change after 192.
            Workload::MixedChurn => 384,
        }
    }

    fn scenario_config(self, seed: u64) -> FleetScenarioConfig {
        let b = FleetScenarioConfig::builder()
            .partitions(PARTITIONS)
            .arrivals(self.arrivals())
            .seed(seed);
        let b = match self {
            Workload::QuotaFlood => b
                .base_utilisation(0.90)
                .departure_permille(0)
                .spike_every(0)
                .mode_change(false)
                // One tenant owns every base task, so its 3.6 of base
                // utilisation already exceeds its best-effort quota
                // (half the fleet's 4.0).
                .tenants(1)
                .best_effort_tenants(1),
            Workload::IntegrationWall => b
                .base_utilisation(0.90)
                .departure_permille(0)
                .spike_every(0)
                .mode_change(false),
            Workload::MixedChurn => b
                .base_utilisation(0.40)
                .departure_permille(900)
                .spike_every(9)
                .mode_change(true)
                .death_every(256)
                .tenants(4)
                .best_effort_tenants(1)
                .burst_every(32),
        };
        b.build().expect("workload scenario configs are valid")
    }

    /// Scenario `index` of the run seeded with `seed`, and the fleet
    /// configuration it is served under. The seed draws the traffic; the
    /// base fleet comes from a fixed pool indexed by `index`, so every
    /// run serves the same mix of base fleets (stratified sampling: a
    /// run's cost does not hinge on which fleets its seed happened to
    /// draw). Base task ids depend only on the partition and the base
    /// size, which the workload fixes, so the traffic's departures and
    /// mode change name the same ids on any base of the pool.
    pub fn scenario(self, seed: u64, index: usize) -> (FleetScenario, FleetConfig) {
        let config = self.scenario_config(sub_seed(seed, index as u64));
        let traffic = FleetScenario::generate(&config);
        // Bases are drawn before the traffic, so a traffic-free config
        // draws the same bases.
        let base_config = FleetScenarioConfig {
            arrivals: 0,
            ..self.scenario_config(sub_seed(BASE_POOL, index as u64))
        };
        let fleet = FleetScenario::generate(&base_config);
        let config = FleetConfig {
            threads: POOL_WIDTH,
            tenants: config.tenant_registry(),
            ..FleetConfig::default()
        };
        let scenario = FleetScenario {
            bases: fleet.bases,
            events: traffic.events,
        };
        (scenario, config)
    }

    /// Scenarios replayed in the closed loop of a run of `seconds`, each
    /// followed by a recovery of its journal. With the open loop, a run
    /// takes about `seconds` on a 2-vCPU x86 VM.
    pub fn closed_scenarios(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::QuotaFlood => 4.5,
            Workload::IntegrationWall => 1.5,
            Workload::MixedChurn => 0.35,
        };
        ((per_second * seconds as f64).round() as usize).max(2)
    }

    /// Open-loop offered rate in events per second, low enough that the
    /// fleet keeps up without a growing backlog.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::QuotaFlood => 5000.0,
            Workload::IntegrationWall => 100.0,
            Workload::MixedChurn => 200.0,
        }
    }

    /// Scenarios replayed in the open loop: a share of the run at the
    /// offered rate, and at least 1000 arrivals. Mixed-churn gets the
    /// larger share: its latency depends most on which traffic it drew,
    /// so it serves as many scenarios open-loop as the run allows.
    pub fn open_scenarios(self, seconds: u64, events_per_scenario: usize) -> usize {
        let share = match self {
            Workload::MixedChurn => 0.75,
            _ => 0.4,
        };
        let by_time = self.open_rate() * share * seconds as f64 / events_per_scenario.max(1) as f64;
        (by_time.ceil() as usize).max(1000usize.div_ceil(self.arrivals()))
    }

    /// Scenarios replayed by the traced run, which serves each one twice
    /// at one event per epoch (about half the run's seconds).
    pub fn trace_scenarios(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::QuotaFlood => 0.7,
            Workload::IntegrationWall => 0.5,
            Workload::MixedChurn => 0.3,
        };
        ((per_second * seconds as f64).round() as usize).max(2)
    }
}

/// Whether closed-loop scenario `index` of `closed` is also served
/// open-loop: `open` scenarios spread evenly over the run.
pub fn serves_open(index: usize, closed: usize, open: usize) -> bool {
    index * open / closed != (index + 1) * open / closed
}

/// The seed of one scenario of a run: the run seed and the scenario index
/// mixed by splitmix64, so neighbouring run seeds share no scenario.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic decision counts a workload guard is checked against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub arrivals: usize,
    pub admitted: usize,
    pub router_rejects: usize,
    pub departures: usize,
    pub spikes: usize,
    pub deaths: usize,
    pub mode_changes: usize,
    /// Partition-level offers (every partition an arrival, re-admission
    /// or orphan was offered to).
    pub offers: usize,
    pub gate_rejects: usize,
    pub integration_rejects: usize,
    pub partition_admits: usize,
    pub repairs: usize,
    pub resyntheses: usize,
    pub fps_fallbacks: usize,
    pub shed: usize,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.arrivals += o.arrivals;
        self.admitted += o.admitted;
        self.router_rejects += o.router_rejects;
        self.departures += o.departures;
        self.spikes += o.spikes;
        self.deaths += o.deaths;
        self.mode_changes += o.mode_changes;
        self.offers += o.offers;
        self.gate_rejects += o.gate_rejects;
        self.integration_rejects += o.integration_rejects;
        self.partition_admits += o.partition_admits;
        self.repairs += o.repairs;
        self.resyntheses += o.resyntheses;
        self.fps_fallbacks += o.fps_fallbacks;
        self.shed += o.shed;
    }

    /// Partition admissions over offers that passed the utilisation gate.
    pub fn integration_yield(&self) -> f64 {
        ratio(
            self.partition_admits,
            self.offers.saturating_sub(self.gate_rejects),
        )
    }

    /// How many of the churn classes (admit, departure, spike, death,
    /// mode change) occurred.
    pub fn churn_classes(&self) -> usize {
        [
            self.admitted,
            self.departures,
            self.spikes,
            self.deaths,
            self.mode_changes,
        ]
        .iter()
        .filter(|&&n| n > 0)
        .count()
    }
}

pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks the deterministic property `workload` was chosen for. Returns
/// the line to print, or the reason the run measured something else.
pub fn guard(workload: Workload, t: &Tally) -> Result<String, String> {
    let (holds, line) = match workload {
        Workload::QuotaFlood => (
            t.offers == 0 && t.arrivals > 0 && t.router_rejects == t.arrivals,
            format!(
                "partition offers = {} and router rejects = {} of {} arrivals",
                t.offers, t.router_rejects, t.arrivals
            ),
        ),
        Workload::IntegrationWall => (
            t.integration_rejects > 0 && t.integration_yield() < 0.5,
            format!(
                "integration yield = {:.3} ({} admits, {} failing integrations)",
                t.integration_yield(),
                t.partition_admits,
                t.integration_rejects
            ),
        ),
        Workload::MixedChurn => (
            t.churn_classes() == 5,
            format!(
                "admits {} departures {} spikes {} deaths {} mode changes {}",
                t.admitted, t.departures, t.spikes, t.deaths, t.mode_changes
            ),
        ),
    };
    if holds {
        Ok(format!("guard {}: {line} (holds)", workload.name()))
    } else {
        Err(format!("guard {} failed: {line}", workload.name()))
    }
}
