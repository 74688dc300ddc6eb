//! `paper-suite`: the registered scenario of the paper's evaluation, one
//! (point × run) item per campaign through `run_scenario_shard`, folded
//! at the end of every cycle with `merge_archives(..).result()`.
//!
//! The traced run re-executes each item as the public calls it is made
//! of (generate, `from_population`, `plan`, `validate`, and
//! `run_campaign` on the already-made plan, for the unicast baseline and
//! every mechanism under every payload) and rebuilds the item's archive
//! records from them, which must equal the untraced item bit for bit.

use std::time::Instant;

use nbiot_des::SeedSequence;
use nbiot_grouping::{
    GroupingInput, GroupingMechanism, ImprovementStats, MechanismKind, MulticastPlan,
};
use nbiot_sim::{
    merge_archives, run_campaign, run_scenario_shard, CampaignResult, ItemRows, MechRun, Scenario,
    ScenarioArchive, ShardSpec, SimConfig, SimError,
};

use crate::common::{self, FixedPlan};
use crate::harness::{gate, ms_since, Failure, Obs, Timing, Trace, Workload};

/// The suite's committed result at its registered seed.
const GOLDEN: &str = include_str!("../../golden/paper_suite.json");

pub struct PaperSuite {
    scenario: Scenario,
    sims: Vec<SimConfig>,
    items: u32,
    /// Whether the scenario runs at its registered master seed, where the
    /// merged result must equal the golden file.
    registered: bool,
    archives: Vec<ScenarioArchive>,
    /// Serialized result of the first merged cycle, at other seeds.
    first_result: Option<String>,
}

/// One item re-executed call by call.
struct Decomposed {
    rows: ItemRows,
    input: GroupingInput,
    plans: Vec<MulticastPlan>,
    results: Vec<CampaignResult>,
}

impl PaperSuite {
    /// The registered scenario, single-threaded, with its master seed
    /// XOR-ed with `seed` (seed 0 is the registered seed).
    pub fn new(seed: u64) -> Result<PaperSuite, Failure> {
        let mut scenario = Scenario::builtin("paper-suite").expect("paper-suite is registered");
        scenario.threads = 1;
        scenario.master_seed ^= seed;
        // The decomposition mirrors a static-fleet grid with a unicast
        // baseline: the shape of this scenario.
        gate(scenario.baseline && scenario.churn.is_none(), || {
            "paper-suite is no longer a static scenario with a unicast baseline".into()
        })?;
        let sims = scenario
            .payloads
            .iter()
            .map(|&payload| scenario.sim.with_payload(payload))
            .collect();
        let items = u32::try_from(scenario.devices.len() * scenario.runs as usize)
            .expect("item count fits u32");
        Ok(PaperSuite {
            scenario,
            sims,
            items,
            registered: seed == 0,
            archives: Vec::new(),
            first_result: None,
        })
    }

    fn shard(&self, i: usize) -> Result<ScenarioArchive, Failure> {
        let shard = ShardSpec {
            index: i as u32,
            count: self.items,
        };
        Ok(run_scenario_shard(&self.scenario, shard)?)
    }

    fn n_devices(&self, i: usize) -> usize {
        self.scenario.devices[i / self.scenario.runs as usize]
    }

    fn obs(&self, i: usize, archive: &ScenarioArchive) -> Obs {
        let item = &archive.items[0];
        let runs: Vec<&MechRun> = item.rows.iter().flatten().collect();
        let n = runs.len() as f64;
        Obs {
            devices: self.n_devices(i) as u64,
            // Plans are shared by the payload variants: count them once.
            transmissions: item.rows[0].iter().map(|r| r.transmissions as u64).sum(),
            airtime_ms: runs.iter().map(|r| r.plan_airtime_ms as u64).sum(),
            energy_mj: runs.iter().map(|r| r.mean_energy_mj).sum::<f64>() / n,
            wait_s: runs.iter().map(|r| r.mean_wait_s).sum::<f64>() / n,
            digest: item.checksum,
        }
    }

    /// Plans, checks and executes one mechanism under every payload
    /// variant, each execution from a clone of the post-plan stream.
    fn execute(
        &self,
        kind: MechanismKind,
        input: &GroupingInput,
        mut rng: rand::rngs::StdRng,
        trace: &mut Trace,
    ) -> Result<(MulticastPlan, Vec<CampaignResult>), Failure> {
        let mechanism: Box<dyn GroupingMechanism> = kind.instantiate();
        let plan = trace.span(common::plan_span(kind), || mechanism.plan(input, &mut rng))?;
        trace.span("core.validate_ms", || plan.validate(input))?;
        let results = self
            .sims
            .iter()
            .map(|sim| {
                trace.span("sim.des_ms", || {
                    run_campaign(&FixedPlan(&plan), input, sim, &mut rng.clone())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((plan, results))
    }

    fn decompose(&self, i: usize, trace: &mut Trace) -> Result<Decomposed, Failure> {
        let run = i % self.scenario.runs as usize;
        let seq = SeedSequence::new(self.scenario.master_seed).child(run as u64);
        let pop = trace.span("traffic.generate_ms", || {
            self.scenario
                .mix
                .generate(self.n_devices(i), &mut seq.rng(0))
        })?;
        let input = trace.span("core.input_ms", || {
            GroupingInput::from_population(&pop, self.scenario.grouping)
        })?;
        let (_, base) = self.execute(MechanismKind::Unicast, &input, seq.rng(1), trace)?;
        let mut rows: ItemRows = vec![Vec::new(); self.sims.len()];
        let mut plans = Vec::new();
        let mut results = base.clone();
        for (k, &kind) in self.scenario.mechanisms.iter().enumerate() {
            let (plan, runs) = self.execute(kind, &input, seq.rng(2 + k as u64), trace)?;
            let hist = common::coverage_histogram(&plan, &input);
            let improvement = plan.improvement;
            let stat = |f: fn(&ImprovementStats) -> u32| {
                improvement.as_ref().map_or(0.0, |s| f64::from(f(s)))
            };
            for (p, result) in runs.iter().enumerate() {
                let rel = result.mean_relative_vs(&base[p]);
                let airtime = common::airtime_ms(&hist, &self.sims[p]);
                let tx = hist.iter().sum::<u64>();
                let count_estimate = common::airtime_ms(&[tx, 0, 0], &self.sims[p]);
                rows[p].push(MechRun {
                    rel_light_sleep: rel.light_sleep,
                    rel_connected: rel.connected,
                    transmissions: result.transmission_count as f64,
                    plan_airtime_ms: airtime as f64,
                    airtime_vs_count_ratio: if count_estimate == 0 {
                        0.0
                    } else {
                        airtime as f64 / count_estimate as f64
                    },
                    mean_wait_s: result.mean_wait.as_secs_f64(),
                    mean_connected_s: result.mean_connected_ms() / 1000.0,
                    mean_energy_mj: result.mean_energy_mj(&self.scenario.power),
                    ra_failures: result.ra_failures as f64,
                    late_joins: result.late_joins as f64,
                    regroups: 0.0,
                    stale_miss_ratio: 0.0,
                    cover_cost_initial: stat(|s| s.initial_cost),
                    cover_cost_final: stat(|s| s.final_cost),
                    improve_moves: stat(|s| s.moves_accepted),
                    improve_budget: stat(|s| s.budget_spent),
                    compliant: result.standards_compliant,
                });
            }
            plans.push(plan);
            results.extend(runs);
        }
        Ok(Decomposed {
            rows,
            input,
            plans,
            results,
        })
    }
}

impl Workload for PaperSuite {
    type Out = ScenarioArchive;

    fn cycle_len(&self) -> usize {
        self.items as usize
    }

    fn warm_up(&mut self, _trace: &mut Trace) -> Result<Vec<Obs>, Failure> {
        let archive = self.shard(0)?;
        Ok(vec![self.obs(0, &archive)])
    }

    fn campaign(&mut self, i: usize) -> Result<ScenarioArchive, Failure> {
        self.shard(i)
    }

    fn traced(
        &mut self,
        i: usize,
        trace: &mut Trace,
    ) -> Result<(ScenarioArchive, Timing), Failure> {
        let t = Instant::now();
        let archive = self.shard(i)?;
        let untraced_ms = ms_since(t);
        let t = Instant::now();
        let d = self.decompose(i, trace).map_err(|e| {
            Failure::Gate(format!(
                "decomposed item {i} failed where the shard call ran: {e}"
            ))
        })?;
        let traced_ms = ms_since(t);
        gate(d.rows == archive.items[0].rows, || {
            format!("decomposed item {i} does not reproduce its archive records")
        })?;
        common::count_input(&d.input, trace);
        d.plans.iter().for_each(|p| common::count_plan(p, trace));
        d.results
            .iter()
            .for_each(|r| common::count_result(r, trace));
        Ok((
            archive,
            Timing {
                untraced_ms,
                traced_ms,
            },
        ))
    }

    fn observe(
        &mut self,
        i: usize,
        archive: ScenarioArchive,
        _trace: &mut Trace,
    ) -> Result<Obs, Failure> {
        let obs = self.obs(i, &archive);
        self.archives.push(archive);
        Ok(obs)
    }

    fn end_cycle(&mut self, complete: bool, trace: &mut Trace) -> Result<(), Failure> {
        let archives = std::mem::take(&mut self.archives);
        if !complete {
            return Ok(());
        }
        let (merged, result) = trace
            .event("sim.merge_ms", || {
                let merged = merge_archives(&archives)?;
                let result = merged.result()?;
                Ok::<_, SimError>((merged, result))
            })
            .map_err(|e| Failure::Gate(format!("merging a complete cycle failed: {e}")))?;
        if trace.is_on() {
            let bytes = serde_json::to_string(&merged)
                .expect("archives serialize")
                .len();
            trace.size("sim.archive_bytes", bytes);
        }
        let json = serde_json::to_string_pretty(&result).expect("results serialize") + "\n";
        if self.registered {
            gate(json == GOLDEN, || {
                "merged paper-suite result differs from golden/paper_suite.json".into()
            })
        } else {
            let first = self.first_result.get_or_insert_with(|| json.clone());
            gate(*first == json, || {
                "merged paper-suite result differs between cycles".into()
            })
        }
    }
}
