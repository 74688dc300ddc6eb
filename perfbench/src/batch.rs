//! `city-anytime` and `metering-campaign`: every campaign draws a fresh
//! population, plans it with each of the workload's mechanisms, validates
//! each plan and executes it in the campaign DES. A campaign is already a
//! sequence of public calls, so the traced run wraps the same calls in
//! spans and checks them against an untraced run of the same campaign.

use std::time::Instant;

use nbiot_des::SeedSequence;
use nbiot_energy::PowerProfile;
use nbiot_grouping::{
    GroupingInput, GroupingMechanism, GroupingParams, MechanismKind, MulticastPlan,
};
use nbiot_sim::{run_campaign, CampaignResult, SimConfig};
use nbiot_traffic::TrafficMix;

use crate::common::{self, Digest, FixedPlan};
use crate::harness::{gate, ms_since, Failure, Obs, Timing, Trace, Workload};

pub struct Batch {
    mix: TrafficMix,
    devices: usize,
    kinds: Vec<MechanismKind>,
    mechanisms: Vec<Box<dyn GroupingMechanism>>,
    cycle: usize,
    /// Campaigns each set-up runs ahead of time as its warm-up.
    warm_ups: usize,
    seq: SeedSequence,
    sim: SimConfig,
    power: PowerProfile,
}

pub struct Campaign {
    input: GroupingInput,
    plans: Vec<MulticastPlan>,
    results: Vec<CampaignResult>,
}

impl Batch {
    fn new(
        mix: TrafficMix,
        devices: usize,
        kinds: &[MechanismKind],
        cycle: usize,
        warm_ups: usize,
        seq: SeedSequence,
    ) -> Batch {
        Batch {
            mix,
            devices,
            kinds: kinds.to_vec(),
            mechanisms: kinds.iter().map(|k| k.instantiate()).collect(),
            cycle,
            warm_ups,
            seq,
            sim: SimConfig::default(),
            power: PowerProfile::default(),
        }
    }

    /// 50 ericsson-city devices, planned by the two DR-SC variants that
    /// materialize the candidate-window instance. The instance grows
    /// faster than the fleet: at 100 devices the process peaks at 35 MB and
    /// the campaign p50 of one seed ranged over 30-44 ms between runs on a
    /// loaded shared host, at 50 devices 16 MB and 11.5-13.4 ms. One
    /// population's cost varies by the population, so a set-up warms up
    /// with the first ten.
    pub fn city_anytime(seed: u64) -> Batch {
        Batch::new(
            TrafficMix::ericsson_city(),
            50,
            &[MechanismKind::DrScTabu(64), MechanismKind::DrScWeighted],
            100,
            10,
            SeedSequence::new(seed).child(1),
        )
    }

    /// 10 000 massive-metering devices planned by DR-SC, which dispatches
    /// to the incremental cover engine on this mix.
    pub fn metering_campaign(seed: u64) -> Batch {
        Batch::new(
            TrafficMix::massive_metering(),
            10_000,
            &[MechanismKind::DrSc],
            100,
            3,
            SeedSequence::new(seed).child(2),
        )
    }

    fn run(&self, i: usize, trace: &mut Trace) -> Result<Campaign, Failure> {
        let seq = self.seq.child(i as u64);
        let pop = trace.span("traffic.generate_ms", || {
            self.mix.generate(self.devices, &mut seq.rng(0))
        })?;
        let input = trace.span("core.input_ms", || {
            GroupingInput::from_population(&pop, GroupingParams::default())
        })?;
        let mut plans = Vec::with_capacity(self.kinds.len());
        let mut results = Vec::with_capacity(self.kinds.len());
        for (k, (&kind, mechanism)) in self.kinds.iter().zip(&self.mechanisms).enumerate() {
            let mut rng = seq.rng(1 + k as u64);
            let plan = trace.span(common::plan_span(kind), || mechanism.plan(&input, &mut rng))?;
            trace.span("core.validate_ms", || plan.validate(&input))?;
            let result = trace.span("sim.des_ms", || {
                run_campaign(&FixedPlan(&plan), &input, &self.sim, &mut rng)
            })?;
            plans.push(plan);
            results.push(result);
        }
        Ok(Campaign {
            input,
            plans,
            results,
        })
    }

    fn obs(&self, c: &Campaign) -> Obs {
        let mut digest = Digest::new();
        let (mut energy, mut wait) = (0.0, 0.0);
        for (plan, result) in c.plans.iter().zip(&c.results) {
            let energy_mj = result.mean_energy_mj(&self.power);
            digest.plan(plan).result(result, energy_mj);
            energy += energy_mj;
            wait += result.mean_wait.as_secs_f64();
        }
        let runs = c.results.len() as f64;
        Obs {
            devices: c.input.len() as u64,
            transmissions: c.plans.iter().map(|p| p.transmissions.len() as u64).sum(),
            airtime_ms: c
                .plans
                .iter()
                .map(|p| common::airtime_ms(&common::coverage_histogram(p, &c.input), &self.sim))
                .sum(),
            energy_mj: energy / runs,
            wait_s: wait / runs,
            digest: digest.finish(),
        }
    }
}

impl Workload for Batch {
    type Out = Campaign;

    fn cycle_len(&self) -> usize {
        self.cycle
    }

    fn warm_up(&mut self, _trace: &mut Trace) -> Result<Vec<Obs>, Failure> {
        (0..self.warm_ups)
            .map(|i| Ok(self.obs(&self.run(i, &mut Trace::new(false))?)))
            .collect()
    }

    fn campaign(&mut self, i: usize) -> Result<Campaign, Failure> {
        self.run(i, &mut Trace::new(false))
    }

    fn traced(&mut self, i: usize, trace: &mut Trace) -> Result<(Campaign, Timing), Failure> {
        let t = Instant::now();
        let untraced = self.run(i, &mut Trace::new(false))?;
        let untraced_ms = ms_since(t);
        let t = Instant::now();
        let traced = self.run(i, trace).map_err(|e| {
            Failure::Gate(format!(
                "traced campaign {i} failed where the untraced one ran: {e}"
            ))
        })?;
        let traced_ms = ms_since(t);
        gate(
            traced.plans == untraced.plans && self.obs(&traced) == self.obs(&untraced),
            || format!("traced campaign {i} differs from its untraced run"),
        )?;
        Ok((
            untraced,
            Timing {
                untraced_ms,
                traced_ms,
            },
        ))
    }

    fn observe(&mut self, _i: usize, c: Campaign, trace: &mut Trace) -> Result<Obs, Failure> {
        if trace.is_on() {
            common::count_input(&c.input, trace);
            for (plan, result) in c.plans.iter().zip(&c.results) {
                common::count_plan(plan, trace);
                common::count_result(result, trace);
            }
        }
        Ok(self.obs(&c))
    }
}
