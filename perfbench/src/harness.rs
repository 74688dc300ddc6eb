//! The closed-loop harness every workload runs under: one client, one
//! campaign at a time, the next campaign only after the previous one
//! returns. It owns timing, cycle bookkeeping, failure accounting, the
//! determinism gates and the span recorder of the traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nbiot_grouping::{GroupingError, PlanViolation};
use nbiot_service::ServiceError;
use nbiot_sim::SimError;
use nbiot_traffic::TrafficError;

use crate::common::Digest;

/// Fewest cycles of an untraced run, so every campaign is timed at least
/// twice.
pub const MIN_CYCLES: usize = 2;

/// Why a step did not complete.
#[derive(Debug)]
pub enum Failure {
    /// The program returned an error for this campaign: counted against
    /// the attempted campaigns, and the run continues.
    Campaign(String),
    /// A correctness gate failed: the run aborts with a non-zero exit.
    Gate(String),
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Failure {
        Failure::Campaign(e.to_string())
    }
}

impl From<ServiceError> for Failure {
    fn from(e: ServiceError) -> Failure {
        Failure::Campaign(e.to_string())
    }
}

impl From<TrafficError> for Failure {
    fn from(e: TrafficError) -> Failure {
        Failure::Campaign(e.to_string())
    }
}

impl From<GroupingError> for Failure {
    fn from(e: GroupingError) -> Failure {
        Failure::Campaign(e.to_string())
    }
}

impl From<PlanViolation> for Failure {
    fn from(e: PlanViolation) -> Failure {
        Failure::Campaign(e.to_string())
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Campaign(e) => write!(f, "campaign failed: {e}"),
            Failure::Gate(e) => write!(f, "correctness gate failed: {e}"),
        }
    }
}

/// Fails a correctness gate unless `ok` holds.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Gate(what()))
    }
}

/// One campaign reduced to what the benchmark reports and what the
/// determinism gates compare. Every field is a pure function of the
/// workload seed and the campaign index.
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Devices in the campaign's fleet.
    pub devices: u64,
    /// Payload transmissions of the campaign's plans (baseline excluded).
    pub transmissions: u64,
    /// Payload airtime in ms, each transmission priced at its deepest
    /// recipient, summed over the campaign's executions.
    pub airtime_ms: u64,
    /// Mean device energy (mJ) over the campaign's DES executions.
    pub energy_mj: f64,
    /// Mean device wait (s) before its transmission, same executions.
    pub wait_s: f64,
    /// Digest of the campaign's plans and records.
    pub digest: u64,
}

/// Simulated end-to-end metrics, per campaign, averaged over one cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub transmissions: f64,
    pub airtime_s: f64,
    pub energy_mj: f64,
    pub wait_s: f64,
}

impl SimMetrics {
    /// Means over a cycle of observations.
    pub fn mean_of(cycle: &[Obs]) -> SimMetrics {
        let n = cycle.len().max(1) as f64;
        let sum = |f: fn(&Obs) -> f64| cycle.iter().map(f).sum::<f64>() / n;
        SimMetrics {
            transmissions: sum(|o| o.transmissions as f64),
            airtime_s: sum(|o| o.airtime_ms as f64) / 1000.0,
            energy_mj: sum(|o| o.energy_mj),
            wait_s: sum(|o| o.wait_s),
        }
    }
}

/// Host timing of one traced campaign.
pub struct Timing {
    /// The same campaign as one untraced call, in ms.
    pub untraced_ms: f64,
    /// The traced decomposition, start to end, in ms.
    pub traced_ms: f64,
}

/// A benchmark workload: a fixed, seed-derived list of `cycle_len`
/// campaigns that the harness repeats.
pub trait Workload {
    /// What one campaign returns to [`Workload::observe`].
    type Out;
    /// Campaigns per cycle.
    fn cycle_len(&self) -> usize;
    /// The untimed warm-up of a set-up. When it runs the first campaigns
    /// of the cycle ahead of time, it returns their observations, which
    /// must equal those of the timed campaigns. `trace` is on in the traced
    /// run, for workloads whose warm-up is part of every cycle's work.
    fn warm_up(&mut self, trace: &mut Trace) -> Result<Vec<Obs>, Failure>;
    /// Campaign `i` as the untraced, timed operation.
    fn campaign(&mut self, i: usize) -> Result<Self::Out, Failure>;
    /// Campaign `i` decomposed into spans of the public calls it is made
    /// of, plus the untraced call on the same state. Checks that both give
    /// the same output, and returns the untraced output.
    fn traced(&mut self, i: usize, trace: &mut Trace) -> Result<(Self::Out, Timing), Failure>;
    /// Reduces a campaign's output, recording its work counters when
    /// `trace` is on.
    fn observe(&mut self, i: usize, out: Self::Out, trace: &mut Trace) -> Result<Obs, Failure>;
    /// Workload work after campaign `i` that is not part of a campaign.
    fn between(&mut self, _i: usize, _trace: &mut Trace) -> Result<(), Failure> {
        Ok(())
    }
    /// Workload work at the end of a cycle, given whether every campaign
    /// of the cycle completed.
    fn end_cycle(&mut self, _complete: bool, _trace: &mut Trace) -> Result<(), Failure> {
        Ok(())
    }
    /// Simulated metrics of the first cycle (`None` marks a failed
    /// campaign), after the timed phase.
    fn finish(&mut self, cycle: &[Option<Obs>]) -> Result<SimMetrics, Failure> {
        let done: Vec<Obs> = cycle.iter().flatten().cloned().collect();
        Ok(SimMetrics::mean_of(&done))
    }
}

/// In-memory span and counter recorder. Disabled, every method is a
/// plain call of its closure.
pub struct Trace {
    on: bool,
    /// (layer, ms) of every span inside a traced campaign: reported per
    /// campaign.
    spans: Vec<(&'static str, f64)>,
    /// Timings of single events (one serve, merge, snapshot): reported
    /// per event.
    events: BTreeMap<&'static str, (f64, u64)>,
    /// Counters of the current cycle, summed.
    counts: BTreeMap<&'static str, f64>,
    /// Sizes of objects of the current cycle: (sum, objects).
    sizes: BTreeMap<&'static str, (f64, u64)>,
    /// The first complete cycle's counters and sizes.
    first: Option<CycleCounts>,
}

/// A cycle's counters and its object sizes (sum, objects).
type CycleCounts = (
    BTreeMap<&'static str, f64>,
    BTreeMap<&'static str, (f64, u64)>,
);

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            spans: Vec::new(),
            events: BTreeMap::new(),
            counts: BTreeMap::new(),
            sizes: BTreeMap::new(),
            first: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Times `f` as layer `name` of the current traced campaign.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.spans.push((name, ms_since(t)));
        out
    }

    /// Times `f` as one `name` event.
    pub fn event<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.event_ms(name, ms_since(t));
        out
    }

    /// Records an event timed by the caller.
    pub fn event_ms(&mut self, name: &'static str, ms: f64) {
        if self.on {
            let e = self.events.entry(name).or_insert((0.0, 0));
            e.0 += ms;
            e.1 += 1;
        }
    }

    /// Adds `n` to counter `name` of the current cycle.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += n;
        }
    }

    /// Records the size of one `name` object.
    pub fn size(&mut self, name: &'static str, bytes: usize) {
        if self.on {
            let e = self.sizes.entry(name).or_insert((0.0, 0));
            e.0 += bytes as f64;
            e.1 += 1;
        }
    }

    /// Closes a cycle: its counters and sizes must repeat the first
    /// complete cycle's exactly.
    fn close_cycle(&mut self, complete: bool) -> Result<(), Failure> {
        let counts = std::mem::take(&mut self.counts);
        let sizes = std::mem::take(&mut self.sizes);
        if !self.on || !complete {
            return Ok(());
        }
        match &self.first {
            None => self.first = Some((counts, sizes)),
            Some((c, s)) => {
                gate(c == &counts && s == &sizes, || {
                    format!("work counters differ between cycles: {c:?} {s:?} then {counts:?} {sizes:?}")
                })?
            }
        }
        Ok(())
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything one run measured.
pub struct Report {
    pub cycle_len: usize,
    pub cycles: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The fastest set-up (s).
    pub setup_s: f64,
    /// Set-ups run, one before each cycle.
    pub setups: usize,
    /// Per completed campaign of the cycle, its fastest untraced repeat
    /// (ms).
    pub best_ms: Vec<f64>,
    /// Untraced and traced latencies (ms) of every traced campaign.
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// Devices in the fleets of one cycle's completed campaigns.
    pub cycle_devices: u64,
    /// One cycle's host seconds, assembled from the fastest repeat of each
    /// step: every campaign, the work after it, and the end of the cycle.
    pub best_cycle_s: f64,
    pub sim: SimMetrics,
    /// First-cycle observations, for the digest.
    pub first_cycle: Vec<Obs>,
    pub trace: Trace,
}

/// Times `f` in ms into `best`, keeping the fastest repeat.
fn timed<T>(best: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *best = best.min(ms_since(t));
    out
}

/// Repeats the workload's campaign cycle until `seconds` have passed,
/// stopping at a cycle boundary after at least [`MIN_CYCLES`] cycles (one
/// when traced). Every cycle runs on a workload set up afresh and timed:
/// construction plus the workload's untimed warm-up.
///
/// Each step of the cycle, and the set-up, is timed on every repeat and
/// reported by its fastest repeat: the steps are deterministic,
/// so repeats differ only by host noise, and the shared hosts this runs on
/// slow memory-bound code down by up to 2x in phases of seconds to
/// minutes.
pub fn drive<W: Workload>(
    mut setup: impl FnMut() -> Result<W, Failure>,
    seconds: u64,
    traced: bool,
) -> Result<Report, Failure> {
    let mut trace = Trace::new(traced);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut best_setup, mut warm) = (f64::INFINITY, Vec::new());
    let (mut best_campaign, mut best_between, mut best_end) =
        (Vec::new(), Vec::new(), f64::INFINITY);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Option<Obs>>> = None;
    let (mut attempted, mut failed, mut cycles) = (0u64, 0u64, 0usize);
    let mut w = loop {
        let t = Instant::now();
        let mut w = setup()?;
        let cycle_len = w.cycle_len();
        match w.warm_up(&mut trace) {
            Ok(obs) => warm = obs,
            Err(Failure::Campaign(e)) => eprintln!("perfbench: warm-up failed: {e}"),
            Err(gate) => return Err(gate),
        }
        best_setup = best_setup.min(t.elapsed().as_secs_f64());
        if best_campaign.is_empty() {
            best_campaign = vec![f64::INFINITY; cycle_len];
            best_between = vec![f64::INFINITY; cycle_len];
        }
        let mut cycle: Vec<Option<Obs>> = Vec::with_capacity(cycle_len);
        for i in 0..cycle_len {
            attempted += 1;
            let outcome = if traced {
                w.traced(i, &mut trace).map(|(out, timing)| {
                    best_campaign[i] = best_campaign[i].min(timing.untraced_ms);
                    untraced_ms.push(timing.untraced_ms);
                    traced_ms.push(timing.traced_ms);
                    out
                })
            } else {
                let mut ms = f64::INFINITY;
                let out = timed(&mut ms, || w.campaign(i));
                if out.is_ok() {
                    best_campaign[i] = best_campaign[i].min(ms);
                }
                out
            };
            let obs = match outcome.and_then(|out| w.observe(i, out, &mut trace)) {
                Ok(obs) => Some(obs),
                Err(Failure::Campaign(e)) => {
                    eprintln!("perfbench: campaign {i} failed: {e}");
                    failed += 1;
                    None
                }
                Err(gate) => return Err(gate),
            };
            cycle.push(obs);
            timed(&mut best_between[i], || w.between(i, &mut trace))?;
        }
        let complete = cycle.iter().all(Option::is_some);
        timed(&mut best_end, || w.end_cycle(complete, &mut trace))?;
        trace.close_cycle(complete)?;
        cycles += 1;
        match &first {
            None => first = Some(cycle),
            Some(first) => {
                // Campaigns that completed in both cycles must agree.
                for (k, (a, b)) in first.iter().zip(&cycle).enumerate() {
                    if let (Some(a), Some(b)) = (a, b) {
                        gate(a == b, || {
                            format!("campaign {k} differs between cycles: {a:?} vs {b:?}")
                        })?;
                    }
                }
            }
        }
        if start.elapsed() >= budget && (traced || cycles >= MIN_CYCLES) {
            break w;
        }
    };
    let first = first.expect("the loop ends after a cycle");
    for (k, (warm, timed)) in warm.iter().zip(&first).enumerate() {
        if let Some(timed) = timed {
            gate(warm == timed, || {
                format!("warm-up campaign {k} differs from the timed one: {warm:?} vs {timed:?}")
            })?;
        }
    }
    let first_cycle: Vec<Obs> = first.iter().flatten().cloned().collect();
    gate(!first_cycle.is_empty(), || {
        "every campaign of the first cycle failed".into()
    })?;
    let sim = w.finish(&first)?;
    drop(w);
    let best_ms: Vec<f64> = best_campaign
        .into_iter()
        .filter(|ms| ms.is_finite())
        .collect();
    let best_cycle_ms = best_ms.iter().sum::<f64>() + best_between.iter().sum::<f64>() + best_end;
    Ok(Report {
        cycle_len: first.len(),
        cycles,
        attempted,
        failed,
        setup_s: best_setup,
        setups: cycles,
        best_ms,
        untraced_ms,
        traced_ms,
        cycle_devices: first_cycle.iter().map(|o| o.devices).sum(),
        best_cycle_s: best_cycle_ms / 1e3,
        sim,
        first_cycle,
        trace,
    })
}

/// The `q`-quantile of `values` (linear interpolation between ranks).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained, for the human-readable report.
    pub basis: String,
}

impl Report {
    /// Digest of the first cycle's observations and, traced, its work
    /// counters: equal digests mean two runs agreed on every simulated
    /// quantity.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for o in &self.first_cycle {
            d.add(o.devices)
                .add(o.transmissions)
                .add(o.airtime_ms)
                .add(o.energy_mj.to_bits())
                .add(o.wait_s.to_bits())
                .add(o.digest);
        }
        if let Some((counts, sizes)) = &self.trace.first {
            for (name, v) in counts {
                d.add(name.len() as u64).add(v.to_bits());
            }
            for (name, (v, n)) in sizes {
                d.add(name.len() as u64).add(v.to_bits()).add(*n);
            }
        }
        d.finish()
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let latency = format!(
            "over {} campaigns, each its fastest of {} repeats",
            self.best_ms.len(),
            self.cycles
        );
        let cycle = format!(
            "mean over one cycle of {} campaigns",
            self.first_cycle.len()
        );
        vec![
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
                basis: format!("fastest of {} set-ups, one before each cycle", self.setups),
            },
            Metric {
                name: "campaign_ms_p50",
                value: quantile(&self.best_ms, 0.5),
                unit: "ms",
                basis: latency.clone(),
            },
            Metric {
                name: "campaign_ms_p90",
                value: quantile(&self.best_ms, 0.9),
                unit: "ms",
                basis: latency,
            },
            Metric {
                name: "devices_per_s",
                value: self.cycle_devices as f64 / self.best_cycle_s,
                unit: "1/s",
                basis: format!(
                    "{} devices per cycle over a {:.3} s cycle of fastest steps",
                    self.cycle_devices, self.best_cycle_s
                ),
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
                basis: "VmHWM of the benchmark process".into(),
            },
            Metric {
                name: "transmissions_per_campaign",
                value: self.sim.transmissions,
                unit: "count",
                basis: cycle.clone(),
            },
            Metric {
                name: "airtime_s_per_campaign",
                value: self.sim.airtime_s,
                unit: "s",
                basis: cycle.clone(),
            },
            Metric {
                name: "energy_mj_per_device",
                value: self.sim.energy_mj,
                unit: "mJ",
                basis: cycle.clone(),
            },
            Metric {
                name: "delivery_wait_s",
                value: self.sim.wait_s,
                unit: "s",
                basis: cycle,
            },
        ]
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = &self.trace;
        let campaigns = self.traced_ms.len().max(1) as f64;
        let per_cycle = self.cycle_len as f64;
        let (counts, sizes) = t.first.clone().unwrap_or_default();
        let mut out = Vec::new();
        let mut layer_sum = 0.0;
        for &(name, kind) in LAYERS {
            let (value, basis) = match kind {
                Kind::Span => {
                    let total = t
                        .spans
                        .iter()
                        .filter(|s| s.0 == name)
                        .fold(0.0, |a, s| a + s.1);
                    layer_sum += total / campaigns;
                    (
                        total / campaigns,
                        format!("ms per campaign, {campaigns} campaigns"),
                    )
                }
                Kind::Event => {
                    let (total, n) = t.events.get(name).copied().unwrap_or((0.0, 0));
                    (total / n.max(1) as f64, format!("ms per event, {n} events"))
                }
                Kind::Count => (
                    counts.get(name).copied().unwrap_or(0.0) / per_cycle,
                    "per campaign over one cycle".into(),
                ),
                Kind::Size => {
                    let (total, n) = sizes.get(name).copied().unwrap_or((0.0, 0));
                    (
                        total / n.max(1) as f64,
                        format!("bytes per object, {n} per cycle"),
                    )
                }
            };
            out.push(Metric {
                name,
                value,
                unit: kind.unit(),
                basis,
            });
        }
        let saved = counts
            .get("core.improve.sets_saved")
            .copied()
            .unwrap_or(0.0);
        let spent = counts
            .get("core.improve.budget_spent")
            .copied()
            .unwrap_or(0.0);
        out.push(Metric {
            name: "core.improve.saved_per_iteration",
            value: if spent > 0.0 { saved / spent } else { 0.0 },
            unit: "ratio",
            basis: "sets saved / budget spent over one cycle".into(),
        });
        // The per-campaign checks that the spans do not cover were timed
        // as part of neither: span sums plus this are the traced campaign.
        let mean_traced = self.traced_ms.iter().sum::<f64>() / campaigns;
        out.push(Metric {
            name: "unattributed_ms",
            value: mean_traced - layer_sum,
            unit: "ms",
            basis: format!("of a {mean_traced:.3} ms mean traced campaign"),
        });
        let untraced = quantile(&self.untraced_ms, 0.5);
        out.push(Metric {
            name: "trace_overhead",
            value: quantile(&self.traced_ms, 0.5) / untraced,
            unit: "ratio",
            basis: format!("traced / untraced campaign p50 ({untraced:.3} ms)"),
        });
        out
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Span,
    Event,
    Count,
    Size,
}

impl Kind {
    fn unit(self) -> &'static str {
        match self {
            Kind::Span | Kind::Event => "ms",
            Kind::Count => "count",
            Kind::Size => "bytes",
        }
    }
}

/// Every recorded per-layer metric, in report order.
const LAYERS: &[(&str, Kind)] = &[
    ("traffic.generate_ms", Kind::Span),
    ("core.input_ms", Kind::Span),
    ("time.pos_in_horizon", Kind::Count),
    ("core.plan_ms.dr-sc", Kind::Span),
    ("core.plan_ms.dr-sc-tabu64", Kind::Span),
    ("core.plan_ms.dr-sc-weighted", Kind::Span),
    ("core.plan_ms.da-sc", Kind::Span),
    ("core.plan_ms.dr-si", Kind::Span),
    ("core.plan_ms.unicast", Kind::Span),
    ("core.plan.transmissions", Kind::Count),
    ("core.improve.moves_accepted", Kind::Count),
    ("core.improve.budget_spent", Kind::Count),
    ("core.improve.sets_saved", Kind::Count),
    ("core.validate_ms", Kind::Span),
    ("core.repair_ms", Kind::Span),
    ("sim.des_ms", Kind::Span),
    ("sim.ra_failures", Kind::Count),
    ("sim.late_joins", Kind::Count),
    ("sim.merge_ms", Kind::Event),
    ("sim.archive_bytes", Kind::Size),
    ("service.fold_ms", Kind::Span),
    ("service.fold_events", Kind::Count),
    ("service.serve_ms.repair", Kind::Event),
    ("service.serve_ms.full", Kind::Event),
    ("service.serves.repair", Kind::Count),
    ("service.serves.full", Kind::Count),
    ("service.serves.cached", Kind::Count),
    ("service.snapshot_ms", Kind::Event),
    ("service.restore_ms", Kind::Event),
    ("service.snapshot_bytes", Kind::Size),
];

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
