//! Bit-identity oracle for the decision miss path.
//!
//! The LSTM roll-out and the estimator guard feed argmaxes: one flipped
//! rounding in a gate pre-activation can flip a near-tie, and with it a
//! plan, a campaign fingerprint and the benchmark's plan-mix scan. These
//! digests were recorded on the scalar, one-accumulator-per-row kernel and
//! the rebuild-every-rung ladder; any faster implementation must reproduce
//! them exactly (no FMA, no reassociation — see DESIGN.md, "Decision-path
//! cost").

use murmuration_rl::env::decide_guarded;
use murmuration_rl::{ActionHead, LstmPolicy, Scenario, SloKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HEADS: [ActionHead; 4] =
    [ActionHead::Resolution, ActionHead::Kernel, ActionHead::Device, ActionHead::Quant];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Every hashed quantity is widened to 64 bits first, so the digest
    /// does not depend on a field's width.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// (digest of 500 raw `step` outputs, digest of 300 guarded decisions).
fn digests(sc: &Scenario) -> (u64, u64) {
    // The benchmark's policy: the paper's shape, bench_e2e's seed.
    let policy = LstmPolicy::new(sc.input_dim(), 256, sc.arities(), 0x6d75_726d);
    let mut rng = StdRng::seed_from_u64(1);

    let mut steps = Fnv::new();
    let mut st = policy.initial_state();
    for t in 0..500 {
        let x: Vec<f32> = (0..sc.input_dim()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (logits, value) = policy.step(&x, &mut st, HEADS[t % HEADS.len()]);
        for l in &logits {
            steps.word(u64::from(l.to_bits()));
        }
        steps.word(u64::from(value.to_bits()));
    }

    let mut decisions = Fnv::new();
    for _ in 0..300 {
        let cond = sc.sample_condition(&mut rng);
        let r = decide_guarded(&policy, sc, &cond);
        for &a in &r.actions {
            decisions.word(a as u64);
        }
        decisions.word(r.latency_ms.to_bits());
    }
    (steps.0, decisions.0)
}

fn check(name: &str, sc: &Scenario, want: (u64, u64)) {
    let got = digests(sc);
    println!("{name}: steps {:016x} decisions {:016x}", got.0, got.1);
    assert_eq!(
        got, want,
        "{name}: decision-path bits moved (steps {:016x}, decisions {:016x})",
        got.0, got.1
    );
}

#[test]
fn swarm4_decision_bits_are_frozen() {
    check(
        "swarm4",
        &Scenario::device_swarm(4, SloKind::Latency),
        (0x6fc9_ddc0_5957_d529, 0x2cbf_185b_c949_89fb),
    );
}

#[test]
fn augmented_decision_bits_are_frozen() {
    check(
        "augmented",
        &Scenario::augmented_computing(SloKind::Latency),
        (0xf2fa_0eb6_d0d9_56b2, 0xeaf9_d38e_adda_8a95),
    );
}
