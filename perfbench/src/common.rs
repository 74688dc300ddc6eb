//! Pieces the workloads share: executing an already-made plan, pricing
//! its airtime, digesting it, and its per-layer counters.

use std::collections::HashMap;

use nbiot_grouping::{
    GroupingError, GroupingInput, GroupingMechanism, MechanismKind, MulticastPlan,
};
use nbiot_phy::{CoverageClass, NpdschConfig};
use nbiot_sim::{CampaignResult, SimConfig};
use rand::RngCore;

use crate::harness::Trace;

/// A mechanism that hands out one fixed plan, so `run_campaign` executes
/// a plan made (and timed) beforehand without planning again.
pub struct FixedPlan<'a>(pub &'a MulticastPlan);

impl GroupingMechanism for FixedPlan<'_> {
    fn name(&self) -> String {
        self.0.mechanism.clone()
    }

    fn is_standards_compliant(&self) -> bool {
        self.0.standards_compliant
    }

    fn plan(
        &self,
        _input: &GroupingInput,
        _rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        Ok(self.0.clone())
    }
}

/// The per-layer span name of a mechanism's `plan` call.
pub fn plan_span(kind: MechanismKind) -> &'static str {
    match kind {
        MechanismKind::DrSc => "core.plan_ms.dr-sc",
        MechanismKind::DrScTabu(_) => "core.plan_ms.dr-sc-tabu64",
        MechanismKind::DrScWeighted => "core.plan_ms.dr-sc-weighted",
        MechanismKind::DaSc => "core.plan_ms.da-sc",
        MechanismKind::DrSi => "core.plan_ms.dr-si",
        MechanismKind::Unicast => "core.plan_ms.unicast",
        MechanismKind::ScPtm => "core.plan_ms.sc-ptm",
    }
}

/// Transmissions of `plan` by the coverage class of their deepest
/// recipient, which sets the repetition level the payload is sent at.
pub fn coverage_histogram(plan: &MulticastPlan, input: &GroupingInput) -> [u64; 3] {
    let coverage_of: HashMap<_, _> = input
        .ids()
        .iter()
        .copied()
        .zip(input.coverages().iter().copied())
        .collect();
    let mut hist = [0u64; 3];
    for tx in &plan.transmissions {
        let deepest = tx
            .recipients
            .iter()
            .filter_map(|id| coverage_of.get(id))
            .max()
            .copied()
            .unwrap_or_default();
        hist[deepest as usize] += 1;
    }
    hist
}

/// Payload airtime (ms) of a plan with coverage histogram `hist` under
/// `sim`, priced like the scenario archive's `plan_airtime_ms`.
pub fn airtime_ms(hist: &[u64; 3], sim: &SimConfig) -> u64 {
    CoverageClass::ALL
        .iter()
        .map(|&c| {
            let npdsch = NpdschConfig {
                coverage: c,
                ..sim.npdsch
            };
            hist[c as usize] * npdsch.plan_transfer(sim.payload).duration.as_ms()
        })
        .sum()
}

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) -> &mut Digest {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Adds a plan's transmissions: instants and recipient lists.
    pub fn plan(&mut self, plan: &MulticastPlan) -> &mut Digest {
        self.add(plan.transmissions.len() as u64);
        for tx in &plan.transmissions {
            self.add(tx.at.as_ms()).add(tx.recipients.len() as u64);
            for id in &tx.recipients {
                self.add(u64::from(id.0));
            }
        }
        self
    }

    /// Adds the records of one campaign execution.
    pub fn result(&mut self, result: &CampaignResult, energy_mj: f64) -> &mut Digest {
        self.add(result.transmission_count as u64)
            .add(result.mean_wait.as_ms())
            .add(energy_mj.to_bits())
            .add(result.mean_connected_ms().to_bits())
            .add(result.ra_failures)
            .add(result.late_joins)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Records the work counters of one input: paging occasions in the DR-SC
/// search horizon, summed over devices.
pub fn count_input(input: &GroupingInput, trace: &mut Trace) {
    if !trace.is_on() {
        return;
    }
    let horizon = input.search_horizon();
    let pos: u64 = input
        .schedules()
        .iter()
        .map(|s| s.count_pos_between(horizon.start(), horizon.end()))
        .sum();
    trace.count("time.pos_in_horizon", pos as f64);
}

/// Records the counters of one mechanism plan (not a baseline).
pub fn count_plan(plan: &MulticastPlan, trace: &mut Trace) {
    trace.count("core.plan.transmissions", plan.transmissions.len() as f64);
    if let Some(stats) = plan.improvement {
        trace.count(
            "core.improve.moves_accepted",
            f64::from(stats.moves_accepted),
        );
        trace.count("core.improve.budget_spent", f64::from(stats.budget_spent));
        trace.count(
            "core.improve.sets_saved",
            f64::from(stats.initial_cost) - f64::from(stats.final_cost),
        );
    }
}

/// Records the counters of one DES execution.
pub fn count_result(result: &CampaignResult, trace: &mut Trace) {
    trace.count("sim.ra_failures", result.ra_failures as f64);
    trace.count("sim.late_joins", result.late_joins as f64);
}
