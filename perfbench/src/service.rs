//! `metering-service`: a `groupingd`-style replay of a churned
//! massive-metering fleet under `RegroupPolicy::Repair`. One campaign is
//! one epoch: `GroupingService::apply` folds the epoch's fleet events,
//! then serves its campaign request. Every [`SNAPSHOT_EVERY`] serves the
//! service goes through snapshot → JSON → restore and continues on the
//! restored copy. The set-up before each cycle synthesizes the log and
//! cold-starts a fresh service on it.
//!
//! The traced run times the fold, then re-does the serve as the public
//! calls it is made of (`from_population` on the fleet,
//! `repair_plan_with`, `validate`) on the pre-serve state, and checks the
//! plan the untraced `apply` then installs is the same.

use std::ops::Range;
use std::time::Instant;

use nbiot_des::SeedSequence;
use nbiot_energy::PowerProfile;
use nbiot_grouping::set_cover::KernelArena;
use nbiot_grouping::{repair_plan_with, GroupingInput};
use nbiot_service::{
    Applied, EventLog, EventRecord, GroupingService, ServeAction, ServeSummary, ServiceConfig,
    ServiceSnapshot,
};
use nbiot_sim::{run_campaign, RegroupPolicy, SimConfig};
use nbiot_traffic::{ChurnModel, TrafficMix};

use crate::common::{self, Digest, FixedPlan};
use crate::harness::{gate, ms_since, Failure, Obs, SimMetrics, Timing, Trace, Workload};

const DEVICES: usize = 10_000;
const EPOCHS: u32 = 100;
/// Serves between two snapshot → JSON → restore round trips.
const SNAPSHOT_EVERY: usize = 25;

pub struct MeteringService {
    log: EventLog,
    /// Record range of each epoch; every epoch ends in its campaign request.
    epochs: Vec<Range<usize>>,
    config: ServiceConfig,
    service: GroupingService,
    /// Kernel scratch of the traced repair.
    arena: KernelArena,
    seed: u64,
}

impl MeteringService {
    /// Synthesizes the event log and opens an empty service on it; the
    /// warm-up cold-starts it.
    pub fn new(seed: u64) -> Result<MeteringService, Failure> {
        let model = ChurnModel {
            epochs: EPOCHS,
            departure_rate: 0.02,
            arrival_rate: 0.02,
            handover_rate: 0.03,
        };
        let log = EventLog::synthesize(
            &TrafficMix::massive_metering(),
            DEVICES,
            &model,
            "DR-SC",
            seed,
        )?;
        let mut epochs: Vec<Range<usize>> = Vec::new();
        for (k, record) in log.records.iter().enumerate() {
            let e = record.epoch as usize;
            if e == epochs.len() {
                epochs.push(k..k + 1);
            } else {
                gate(e + 1 == epochs.len(), || {
                    format!("record {k} skips an epoch")
                })?;
                epochs[e].end = k + 1;
            }
        }
        gate(epochs.len() == EPOCHS as usize + 1, || {
            format!(
                "event log has {} epochs, expected {}",
                epochs.len(),
                EPOCHS + 1
            )
        })?;
        let config = ServiceConfig {
            policy: RegroupPolicy::Repair,
            seed,
            ..ServiceConfig::default()
        };
        Ok(MeteringService {
            service: GroupingService::new(config, &log)?,
            log,
            epochs,
            config,
            arena: KernelArena::new(),
            seed,
        })
    }

    fn obs(summary: &ServeSummary, service: &GroupingService) -> Obs {
        let plan = service.plan().expect("a served service holds a plan");
        let mut digest = Digest::new();
        digest
            .add(summary.serve)
            .add(u64::from(summary.epoch))
            .add(summary.action as u64)
            .add(summary.stale_fraction.to_bits())
            .plan(plan);
        Obs {
            devices: summary.devices as u64,
            transmissions: summary.transmissions as u64,
            // Priced and simulated once per cycle, in `finish`.
            airtime_ms: 0,
            energy_mj: 0.0,
            wait_s: 0.0,
            digest: digest.finish(),
        }
    }
}

/// Epoch `e`'s campaign request and the fleet events before it.
fn epoch<'a>(
    log: &'a EventLog,
    epochs: &[Range<usize>],
    e: usize,
) -> (&'a EventRecord, &'a [EventRecord]) {
    log.records[epochs[e].clone()]
        .split_last()
        .expect("every epoch ends in a campaign request")
}

fn serve(service: &mut GroupingService, request: &EventRecord) -> Result<ServeSummary, Failure> {
    match service.apply(request)? {
        Applied::Served(summary) => Ok(summary),
        other => Err(Failure::Gate(format!(
            "a campaign request applied as {other:?}"
        ))),
    }
}

impl Workload for MeteringService {
    type Out = ServeSummary;

    fn cycle_len(&self) -> usize {
        EPOCHS as usize
    }

    /// The cold start: fold the epoch-0 registrations and serve the
    /// first, full plan.
    fn warm_up(&mut self, trace: &mut Trace) -> Result<Vec<Obs>, Failure> {
        let (request, fleet) = epoch(&self.log, &self.epochs, 0);
        let service = &mut self.service;
        for record in fleet {
            service.apply(record)?;
        }
        let summary = trace.event("service.serve_ms.full", || serve(service, request))?;
        gate(summary.action == ServeAction::Full, || {
            format!("cold start served {:?}", summary.action)
        })?;
        trace.count("service.serves.full", 1.0);
        Ok(Vec::new())
    }

    fn campaign(&mut self, i: usize) -> Result<ServeSummary, Failure> {
        let (request, fleet) = epoch(&self.log, &self.epochs, i + 1);
        for record in fleet {
            self.service.apply(record)?;
        }
        serve(&mut self.service, request)
    }

    fn traced(&mut self, i: usize, trace: &mut Trace) -> Result<(ServeSummary, Timing), Failure> {
        let (request, fleet) = epoch(&self.log, &self.epochs, i + 1);
        let t = Instant::now();
        let service = &mut self.service;
        trace.span("service.fold_ms", || {
            fleet
                .iter()
                .try_for_each(|record| service.apply(record).map(drop))
        })?;
        let fold_ms = ms_since(t);
        let t = Instant::now();
        let input = trace.span("core.input_ms", || {
            GroupingInput::from_population(self.service.fleet(), self.config.params)
        })?;
        let old = self.service.plan().expect("a served service holds a plan");
        let arena = &mut self.arena;
        let repaired = trace
            .span("core.repair_ms", || repair_plan_with(old, &input, arena))
            .ok_or_else(|| Failure::Gate("the cached DR-SC plan is not repairable".into()))??;
        trace.span("core.validate_ms", || repaired.validate(&input))?;
        let traced_ms = fold_ms + ms_since(t);
        let t = Instant::now();
        let summary = serve(&mut self.service, request)?;
        let serve_ms = ms_since(t);
        gate(
            summary.action == ServeAction::Repair && self.service.plan() == Some(&repaired),
            || {
                format!(
                    "epoch {} served {:?}, not the traced repair",
                    i + 1,
                    summary.action
                )
            },
        )?;
        trace.event_ms("service.serve_ms.repair", serve_ms);
        trace.count("service.serves.repair", 1.0);
        trace.count("service.fold_events", fleet.len() as f64);
        common::count_input(&input, trace);
        common::count_plan(&repaired, trace);
        Ok((
            summary,
            Timing {
                untraced_ms: fold_ms + serve_ms,
                traced_ms,
            },
        ))
    }

    fn observe(
        &mut self,
        _i: usize,
        summary: ServeSummary,
        trace: &mut Trace,
    ) -> Result<Obs, Failure> {
        if summary.action == ServeAction::Cached {
            trace.count("service.serves.cached", 1.0);
        }
        Ok(MeteringService::obs(&summary, &self.service))
    }

    fn between(&mut self, i: usize, trace: &mut Trace) -> Result<(), Failure> {
        if !(i + 1).is_multiple_of(SNAPSHOT_EVERY) {
            return Ok(());
        }
        let json = trace.event("service.snapshot_ms", || {
            self.service.snapshot().to_json_pretty()
        });
        trace.size("service.snapshot_bytes", json.len());
        self.service = trace
            .event("service.restore_ms", || {
                ServiceSnapshot::from_json(&json).and_then(|s| GroupingService::restore(&s))
            })
            .map_err(|e| Failure::Gate(format!("restoring a snapshot failed: {e}")))?;
        Ok(())
    }

    /// Replays the log once without interruption: every serve must match
    /// the cycle's (which went through snapshot/restore round trips), and
    /// every served plan must validate. Each served plan is then priced
    /// and executed in the campaign DES for the simulated metrics.
    fn finish(&mut self, cycle: &[Option<Obs>]) -> Result<SimMetrics, Failure> {
        let mut service = GroupingService::new(self.config, &self.log)?;
        let sim = SimConfig::default();
        let power = PowerProfile::default();
        let des = SeedSequence::new(self.seed).child(3);
        let mut served: Vec<Obs> = Vec::new();
        let (mut airtime, mut energy, mut wait) = (0u64, 0.0, 0.0);
        for e in 0..self.epochs.len() {
            let (request, fleet) = epoch(&self.log, &self.epochs, e);
            for record in fleet {
                service.apply(record)?;
            }
            let summary = serve(&mut service, request)?;
            if e == 0 {
                continue;
            }
            let obs = MeteringService::obs(&summary, &service);
            if let Some(Some(timed)) = cycle.get(e - 1) {
                gate(*timed == obs, || {
                    format!(
                        "epoch {e}: the snapshot/restore replay differs from the uninterrupted one"
                    )
                })?;
            }
            let plan = service.plan().expect("a served service holds a plan");
            let input = GroupingInput::from_population(service.fleet(), self.config.params)?;
            gate(plan.validate(&input).is_ok(), || {
                format!("the plan served at epoch {e} is invalid")
            })?;
            let result = run_campaign(&FixedPlan(plan), &input, &sim, &mut des.rng(e as u64))?;
            airtime += common::airtime_ms(&common::coverage_histogram(plan, &input), &sim);
            energy += result.mean_energy_mj(&power);
            wait += result.mean_wait.as_secs_f64();
            served.push(obs);
        }
        let n = served.len() as f64;
        Ok(SimMetrics {
            airtime_s: airtime as f64 / n / 1000.0,
            energy_mj: energy / n,
            wait_s: wait / n,
            ..SimMetrics::mean_of(&served)
        })
    }
}
