//! The LSTM policy network (paper Fig. 5), from scratch with BPTT.
//!
//! A single LSTM layer propagates context across the sequential decisions;
//! each action *type* (resolution, kernel, depth, expand, quant, partition,
//! device) has its own fully-connected output head. A scalar value head
//! supports the PPO baseline.

use murmuration_nn::module::Module;
use murmuration_nn::param::Param;
use murmuration_tensor::activation::{log_softmax_at, sigmoid, softmax};
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Action-type heads, in decision-schedule order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionHead {
    Resolution = 0,
    Kernel = 1,
    Depth = 2,
    Expand = 3,
    Quant = 4,
    Partition = 5,
    Device = 6,
}

/// Number of distinct heads.
pub const NUM_HEADS: usize = 7;

/// Gate rows whose pre-activations the cell kernel accumulates side by side.
const PANEL: usize = 32;

/// The policy network.
#[derive(Clone)]
pub struct LstmPolicy {
    pub input_dim: usize,
    pub hidden: usize,
    /// Input-to-gates weights `[4H, I]` (gate order: i, f, g, o).
    wx: Param,
    /// Hidden-to-gates weights `[4H, H]`.
    wh: Param,
    /// Gate biases `[4H]`.
    b: Param,
    /// Per-head output weights `[arity, H]` and biases `[arity]`.
    heads: Vec<(Param, Param)>,
    /// Value head `[1, H]` + bias.
    value: (Param, Param),
    arities: Vec<usize>,
    /// `[wx | wh]` again, k-major in panels of [`PANEL`] gate rows
    /// (`[panel][k][row]`, rows past `4H` zero): built on first use, dropped
    /// by `visit_params`, the only door through which weights change.
    packed: OnceLock<Vec<f32>>,
}

/// Recurrent state carried across decisions, with the per-step scratch.
#[derive(Clone, Debug)]
pub struct PolicyState {
    pub h: Vec<f32>,
    pub c: Vec<f32>,
    gates: Vec<f32>,
    logits: Vec<f32>,
}

impl PolicyState {
    /// Logits of the most recent [`LstmPolicy::advance`].
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

/// Everything one step's backward pass needs (`h`/`c` of the step before
/// are read from its own cache).
#[derive(Clone)]
struct StepCache {
    x: Vec<f32>,
    /// Activated gates `[i | f | g | o]`.
    gates: Vec<f32>,
    c: Vec<f32>,
    h: Vec<f32>,
    head: usize,
    logits: Vec<f32>,
    value: f32,
}

/// A recorded forward pass over a whole decision sequence.
pub struct SeqForward {
    steps: Vec<StepCache>,
}

impl SeqForward {
    /// Logits of step `t`.
    pub fn logits(&self, t: usize) -> &[f32] {
        &self.steps[t].logits
    }

    /// Value estimate of step `t`.
    pub fn value(&self, t: usize) -> f32 {
        self.steps[t].value
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the pass recorded no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl LstmPolicy {
    /// Fresh policy. `arities[head]` is the option count of each head
    /// (indexed by [`ActionHead`] discriminants).
    pub fn new(input_dim: usize, hidden: usize, arities: Vec<usize>, seed: u64) -> Self {
        assert_eq!(arities.len(), NUM_HEADS, "one arity per head");
        let mut rng = StdRng::seed_from_u64(seed);
        let wx = Param::new(Tensor::kaiming(Shape::d2(4 * hidden, input_dim), input_dim, &mut rng));
        let wh = Param::new(Tensor::kaiming(Shape::d2(4 * hidden, hidden), hidden, &mut rng));
        // Forget-gate bias starts at 1 (standard LSTM practice).
        let mut bt = Tensor::zeros(Shape::d1(4 * hidden));
        for j in hidden..2 * hidden {
            bt.data_mut()[j] = 1.0;
        }
        let b = Param::new(bt);
        let heads = arities
            .iter()
            .map(|&a| {
                (
                    Param::new(Tensor::kaiming(Shape::d2(a, hidden), hidden, &mut rng)),
                    Param::new(Tensor::zeros(Shape::d1(a))),
                )
            })
            .collect();
        let value = (
            Param::new(Tensor::kaiming(Shape::d2(1, hidden), hidden, &mut rng)),
            Param::new(Tensor::zeros(Shape::d1(1))),
        );
        LstmPolicy { input_dim, hidden, wx, wh, b, heads, value, arities, packed: OnceLock::new() }
    }

    /// Option count of a head.
    pub fn arity(&self, head: ActionHead) -> usize {
        self.arities[head as usize]
    }

    /// Option count by raw head index (serialization helper).
    pub fn arity_by_index(&self, head: usize) -> usize {
        self.arities[head]
    }

    /// Zeroed recurrent state.
    pub fn initial_state(&self) -> PolicyState {
        PolicyState {
            h: vec![0.0; self.hidden],
            c: vec![0.0; self.hidden],
            gates: vec![0.0; 4 * self.hidden],
            logits: Vec::with_capacity(self.arities.iter().copied().max().unwrap_or(0)),
        }
    }

    fn packed(&self) -> &[f32] {
        self.packed.get_or_init(|| {
            let (id, hd) = (self.input_dim, self.hidden);
            let (wx, wh) = (self.wx.value.data(), self.wh.value.data());
            let mut out = vec![0.0f32; (4 * hd).div_ceil(PANEL) * (id + hd) * PANEL];
            for j in 0..4 * hd {
                let lane = &mut out[j / PANEL * (id + hd) * PANEL + j % PANEL..];
                let row = wx[j * id..(j + 1) * id].iter().chain(&wh[j * hd..(j + 1) * hd]);
                for (k, &w) in row.enumerate() {
                    lane[k * PANEL] = w;
                }
            }
            out
        })
    }

    /// Gate pre-activations `b + wx·x + wh·h`. Every row is its own
    /// accumulator adding bias, then the `x` terms, then the `h` terms in
    /// index order with a separate multiply and add: the rounding of one
    /// serial chain per row, computed [`PANEL`] rows at a time so the loop
    /// vectorises. Decisions are argmaxes over what this feeds, so no FMA
    /// and no reassociation here (`tests/decision_golden.rs` holds the bits).
    fn gate_preactivations(&self, x: &[f32], h: &[f32], pre: &mut [f32]) {
        let panels = self.packed().chunks_exact((self.input_dim + self.hidden) * PANEL);
        let bias = self.b.value.data().chunks(PANEL);
        for ((panel, bias), out) in panels.zip(bias).zip(pre.chunks_mut(PANEL)) {
            let mut acc = [0.0f32; PANEL];
            acc[..bias.len()].copy_from_slice(bias);
            for (w, &v) in panel.as_chunks::<PANEL>().0.iter().zip(x.iter().chain(h)) {
                for (a, &wv) in acc.iter_mut().zip(w) {
                    *a += wv * v;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }

    /// One LSTM cell step, in place: advances `st.h`/`st.c`, leaves the
    /// activated gates `[i | f | g | o]` and the head's logits in the state
    /// ([`PolicyState::logits`]) and returns the value estimate. A warm
    /// state makes it allocation-free.
    pub fn advance(&self, x: &[f32], st: &mut PolicyState, head: ActionHead) -> f32 {
        assert_eq!(x.len(), self.input_dim, "input dim");
        let hd = self.hidden;
        let PolicyState { h, c, gates, logits } = st;
        self.gate_preactivations(x, h, gates);
        for j in 0..hd {
            let (i, f) = (sigmoid(gates[j]), sigmoid(gates[hd + j]));
            let (g, o) = (gates[2 * hd + j].tanh(), sigmoid(gates[3 * hd + j]));
            c[j] = f * c[j] + i * g;
            h[j] = o * c[j].tanh();
            (gates[j], gates[hd + j], gates[2 * hd + j], gates[3 * hd + j]) = (i, f, g, o);
        }
        let dot = |row: &[f32]| row.iter().zip(h.iter()).map(|(w, v)| w * v).sum::<f32>();
        let (hw, hb) = &self.heads[head as usize];
        logits.clear();
        logits.extend(
            hw.value.data().chunks_exact(hd).zip(hb.value.data()).map(|(row, b)| b + dot(row)),
        );
        self.value.1.value.data()[0] + dot(self.value.0.value.data())
    }

    /// Inference step: advances the state, returns logits (and value).
    pub fn step(&self, x: &[f32], st: &mut PolicyState, head: ActionHead) -> (Vec<f32>, f32) {
        let value = self.advance(x, st, head);
        (st.logits.clone(), value)
    }

    /// Full-sequence forward pass with caching for BPTT.
    pub fn forward_seq(&self, steps: &[(Vec<f32>, ActionHead)]) -> SeqForward {
        let mut st = self.initial_state();
        let steps = steps
            .iter()
            .map(|(x, head)| {
                let value = self.advance(x, &mut st, *head);
                let PolicyState { h, c, gates, logits } = st.clone();
                StepCache { x: x.clone(), gates, c, h, head: *head as usize, logits, value }
            })
            .collect();
        SeqForward { steps }
    }

    /// BPTT. `dlogits[t]` is the gradient w.r.t. step `t`'s logits (may be
    /// all-zero); `dvalues[t]` the gradient w.r.t. the value output.
    /// Gradients accumulate into the parameters.
    pub fn backward_seq(&mut self, fw: &SeqForward, dlogits: &[Vec<f32>], dvalues: &[f32]) {
        assert_eq!(fw.steps.len(), dlogits.len());
        assert_eq!(fw.steps.len(), dvalues.len());
        let hd = self.hidden;
        let mut dh_next = vec![0.0f32; hd];
        let mut dc_next = vec![0.0f32; hd];
        let zeros = vec![0.0f32; hd];
        for t in (0..fw.steps.len()).rev() {
            let s = &fw.steps[t];
            let (h_prev, c_prev) = match t.checked_sub(1) {
                Some(p) => (&fw.steps[p].h, &fw.steps[p].c),
                None => (&zeros, &zeros),
            };
            let (si, sf, sg, so) = (
                &s.gates[..hd],
                &s.gates[hd..2 * hd],
                &s.gates[2 * hd..3 * hd],
                &s.gates[3 * hd..],
            );
            // dh from the head, the value head, and the next step.
            let mut dh = dh_next.clone();
            {
                let (hw, hb) = &mut self.heads[s.head];
                let dl = &dlogits[t];
                assert_eq!(dl.len(), s.logits.len(), "step {t} logits grad");
                for (a, &d) in dl.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    hb.grad.data_mut()[a] += d;
                    let wrow = &hw.value.data()[a * hd..(a + 1) * hd].to_vec();
                    let grow = &mut hw.grad.data_mut()[a * hd..(a + 1) * hd];
                    for j in 0..hd {
                        grow[j] += d * s.h[j];
                        dh[j] += d * wrow[j];
                    }
                }
            }
            let dv = dvalues[t];
            if dv != 0.0 {
                self.value.1.grad.data_mut()[0] += dv;
                let vrow = self.value.0.value.data().to_vec();
                let grow = self.value.0.grad.data_mut();
                for j in 0..hd {
                    grow[j] += dv * s.h[j];
                    dh[j] += dv * vrow[j];
                }
            }
            // Through the cell.
            let mut dpre = vec![0.0f32; 4 * hd];
            let mut dc_prev = vec![0.0f32; hd];
            for j in 0..hd {
                let tanh_c = s.c[j].tanh();
                let do_ = dh[j] * tanh_c;
                let dc = dh[j] * so[j] * (1.0 - tanh_c * tanh_c) + dc_next[j];
                let di = dc * sg[j];
                let df = dc * c_prev[j];
                let dg = dc * si[j];
                dpre[j] = di * si[j] * (1.0 - si[j]);
                dpre[hd + j] = df * sf[j] * (1.0 - sf[j]);
                dpre[2 * hd + j] = dg * (1.0 - sg[j] * sg[j]);
                dpre[3 * hd + j] = do_ * so[j] * (1.0 - so[j]);
                dc_prev[j] = dc * sf[j];
            }
            // Parameter grads and upstream dh_prev.
            let mut dh_prev = vec![0.0f32; hd];
            {
                let wxg = self.wx.grad.data_mut();
                for (j, &dp) in dpre.iter().enumerate() {
                    if dp == 0.0 {
                        continue;
                    }
                    let row = &mut wxg[j * self.input_dim..(j + 1) * self.input_dim];
                    for (rv, xv) in row.iter_mut().zip(s.x.iter()) {
                        *rv += dp * xv;
                    }
                }
            }
            {
                let wh_vals = self.wh.value.data().to_vec();
                let whg = self.wh.grad.data_mut();
                for (j, &dp) in dpre.iter().enumerate() {
                    if dp == 0.0 {
                        continue;
                    }
                    let row = &mut whg[j * hd..(j + 1) * hd];
                    let vrow = &wh_vals[j * hd..(j + 1) * hd];
                    for k in 0..hd {
                        row[k] += dp * h_prev[k];
                        dh_prev[k] += dp * vrow[k];
                    }
                }
            }
            {
                let bg = self.b.grad.data_mut();
                for (j, &dp) in dpre.iter().enumerate() {
                    bg[j] += dp;
                }
            }
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
    }

    /// Samples an action from logits; `epsilon` forces uniform exploration.
    pub fn sample_action<R: Rng>(logits: &[f32], valid: usize, epsilon: f32, rng: &mut R) -> usize {
        assert!(valid >= 1 && valid <= logits.len());
        if epsilon > 0.0 && rng.gen::<f32>() < epsilon {
            return rng.gen_range(0..valid);
        }
        let probs = softmax(&logits[..valid]);
        let mut u: f32 = rng.gen();
        for (a, &p) in probs.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return a;
            }
        }
        valid - 1
    }

    /// Greedy action from logits (masked to the first `valid` options).
    pub fn greedy_action(logits: &[f32], valid: usize) -> usize {
        logits[..valid]
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc })
            .0
    }

    /// Log-probability of `action` under `logits` masked to `valid`.
    pub fn logp(logits: &[f32], valid: usize, action: usize) -> f32 {
        log_softmax_at(&logits[..valid], action)
    }
}

impl Module for LstmPolicy {
    fn forward(&mut self, _x: &Tensor, _train: bool) -> Tensor {
        unreachable!("LstmPolicy uses forward_seq / step, not the Module forward")
    }

    fn backward(&mut self, _dy: &Tensor) -> Tensor {
        unreachable!("LstmPolicy uses backward_seq, not the Module backward")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.packed.take();
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
        for (w, b) in &mut self.heads {
            f(w);
            f(b);
        }
        f(&mut self.value.0);
        f(&mut self.value.1);
    }

    fn name(&self) -> &'static str {
        "LstmPolicy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_nn::optim::Adam;
    use proptest::prelude::*;

    fn tiny_policy(seed: u64) -> LstmPolicy {
        LstmPolicy::new(4, 8, vec![3, 3, 3, 3, 3, 4, 5], seed)
    }

    /// The cell as it was before the panel kernel — one serial accumulator
    /// per gate row — kept as the bit-for-bit reference. Reads the
    /// row-major parameters, so it can never see a stale pack.
    fn scalar_cell(p: &LstmPolicy, x: &[f32], st: &mut PolicyState, head: ActionHead) -> f32 {
        let (id, hd, head) = (p.input_dim, p.hidden, head as usize);
        let mut pre = vec![0.0f32; 4 * hd];
        let wx = p.wx.value.data();
        let wh = p.wh.value.data();
        let bb = p.b.value.data();
        for j in 0..4 * hd {
            let mut acc = bb[j];
            for (wv, xv) in wx[j * id..(j + 1) * id].iter().zip(x.iter()) {
                acc += wv * xv;
            }
            for (wv, hv) in wh[j * hd..(j + 1) * hd].iter().zip(st.h.iter()) {
                acc += wv * hv;
            }
            pre[j] = acc;
        }
        for j in 0..hd {
            let (i, f) = (sigmoid(pre[j]), sigmoid(pre[hd + j]));
            let (g, o) = (pre[2 * hd + j].tanh(), sigmoid(pre[3 * hd + j]));
            st.c[j] = f * st.c[j] + i * g;
            st.h[j] = o * st.c[j].tanh();
        }
        let (hw, hb) = &p.heads[head];
        st.logits = (0..p.arities[head])
            .map(|a| {
                let row = &hw.value.data()[a * hd..(a + 1) * hd];
                hb.value.data()[a] + row.iter().zip(st.h.iter()).map(|(w, v)| w * v).sum::<f32>()
            })
            .collect();
        let vrow = p.value.0.value.data();
        p.value.1.value.data()[0] + vrow.iter().zip(st.h.iter()).map(|(w, v)| w * v).sum::<f32>()
    }

    const HEADS: [ActionHead; NUM_HEADS] = [
        ActionHead::Resolution,
        ActionHead::Kernel,
        ActionHead::Depth,
        ActionHead::Expand,
        ActionHead::Quant,
        ActionHead::Partition,
        ActionHead::Device,
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Steps `p` and the scalar reference side by side from a fresh state
    /// and requires identical bits in logits, value, `h` and `c`.
    fn assert_matches_scalar(p: &LstmPolicy, steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut st, mut want) = (p.initial_state(), p.initial_state());
        for t in 0..steps {
            let x: Vec<f32> = (0..p.input_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let head = HEADS[t % NUM_HEADS];
            let want_value = scalar_cell(p, &x, &mut want, head);
            let value = p.advance(&x, &mut st, head);
            assert_eq!(value.to_bits(), want_value.to_bits(), "value, step {t}");
            assert_eq!(bits(st.logits()), bits(&want.logits), "logits, step {t}");
            assert_eq!(bits(&st.h), bits(&want.h), "h, step {t}");
            assert_eq!(bits(&st.c), bits(&want.c), "c, step {t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Hidden sizes whose `4H` is not a multiple of [`PANEL`] (1, 5,
        /// 20) exercise the zero-padded tail panel.
        #[test]
        fn panel_kernel_is_bit_identical_to_scalar_cell(
            input_dim in 1usize..=24,
            hidden in prop::sample::select(vec![1usize, 5, 8, 16, 20, 64]),
            steps in 1usize..12,
            seed in 0u64..1000,
        ) {
            let p = LstmPolicy::new(input_dim, hidden, vec![3, 2, 4, 3, 3, 4, 5], seed);
            assert_matches_scalar(&p, steps, seed);
        }
    }

    #[test]
    fn weight_changes_drop_the_pack() {
        let mut p = tiny_policy(5);
        let steps = vec![(vec![0.3, -0.4, 0.1, 0.9], ActionHead::Device); 3];
        assert_matches_scalar(&p, 4, 0); // builds the pack
                                         // The optimizer.
        p.zero_grad();
        let fw = p.forward_seq(&steps);
        let dlogits: Vec<Vec<f32>> = (0..3).map(|t| softmax(fw.logits(t))).collect();
        p.backward_seq(&fw, &dlogits, &[1.0; 3]);
        Adam::new(0.05).step(&mut p);
        assert_matches_scalar(&p, 4, 1);
        // A load from disk (it fills a fresh policy through `visit_params`).
        let path = std::env::temp_dir().join(format!("murm_pack_{}.bin", std::process::id()));
        crate::serialize::save_policy(&mut p, &path).unwrap();
        let loaded = crate::serialize::load_policy(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_matches_scalar(&loaded, 4, 2);
        assert_eq!(bits(loaded.wh.value.data()), bits(p.wh.value.data()));
        // A direct poke, as the finite-difference test does.
        assert_matches_scalar(&p, 4, 3);
        poke(&mut p).wh.value.data_mut()[3] += 0.5;
        assert_matches_scalar(&p, 4, 3);
    }

    /// In-module tests reach the weights directly, past `visit_params`;
    /// this is their door, and it drops the pack like the real one.
    fn poke(p: &mut LstmPolicy) -> &mut LstmPolicy {
        p.packed.take();
        p
    }

    #[test]
    fn step_and_seq_agree() {
        let p = tiny_policy(0);
        let xs: Vec<(Vec<f32>, ActionHead)> =
            (0..5).map(|t| (vec![t as f32 * 0.1, 0.5, -0.2, 1.0], ActionHead::Kernel)).collect();
        let fw = p.forward_seq(&xs);
        let mut st = p.initial_state();
        for (t, (x, head)) in xs.iter().enumerate() {
            let (logits, value) = p.step(x, &mut st, *head);
            assert_eq!(bits(&logits), bits(fw.logits(t)));
            assert_eq!(value.to_bits(), fw.value(t).to_bits());
        }
    }

    #[test]
    fn bptt_matches_finite_difference() {
        // Loss = -log p(a_t) summed over a 3-step sequence; check dWx, dWh
        // against central differences at probed coordinates.
        let mut p = tiny_policy(1);
        let steps: Vec<(Vec<f32>, ActionHead)> = vec![
            (vec![0.2, -0.1, 0.4, 0.0], ActionHead::Resolution),
            (vec![-0.3, 0.2, 0.1, 0.5], ActionHead::Partition),
            (vec![0.0, 0.7, -0.2, 0.3], ActionHead::Device),
        ];
        let actions = [1usize, 2, 3];
        let loss_fn = |p: &LstmPolicy| -> f32 {
            let fw = p.forward_seq(&steps);
            (0..3).map(|t| -LstmPolicy::logp(fw.logits(t), fw.logits(t).len(), actions[t])).sum()
        };
        // Analytic.
        p.zero_grad();
        let fw = p.forward_seq(&steps);
        let dlogits: Vec<Vec<f32>> = (0..3)
            .map(|t| {
                let probs = softmax(fw.logits(t));
                let mut d = probs;
                d[actions[t]] -= 1.0;
                d
            })
            .collect();
        let dvalues = vec![0.0; 3];
        p.backward_seq(&fw, &dlogits, &dvalues);

        let eps = 1e-2f32;
        // Probe a few coordinates of wx and wh.
        for probe in [(0usize, 0usize), (3, 2), (17, 1)] {
            let idx = probe.0 * p.input_dim + probe.1;
            let analytic = p.wx.grad.data()[idx];
            poke(&mut p).wx.value.data_mut()[idx] += eps;
            let lp = loss_fn(&p);
            poke(&mut p).wx.value.data_mut()[idx] -= 2.0 * eps;
            let lm = loss_fn(&p);
            poke(&mut p).wx.value.data_mut()[idx] += eps;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 0.02 * fd.abs().max(analytic.abs()).max(0.05),
                "wx[{idx}]: fd {fd} vs analytic {analytic}"
            );
        }
        for probe in [(2usize, 3usize), (20, 5)] {
            let idx = probe.0 * p.hidden + probe.1;
            let analytic = p.wh.grad.data()[idx];
            poke(&mut p).wh.value.data_mut()[idx] += eps;
            let lp = loss_fn(&p);
            poke(&mut p).wh.value.data_mut()[idx] -= 2.0 * eps;
            let lm = loss_fn(&p);
            poke(&mut p).wh.value.data_mut()[idx] += eps;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 0.02 * fd.abs().max(analytic.abs()).max(0.05),
                "wh[{idx}]: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn supervised_training_imitates_target_sequence() {
        // Teach the policy to always produce a fixed action sequence.
        let mut p = tiny_policy(2);
        let steps: Vec<(Vec<f32>, ActionHead)> = vec![
            (vec![1.0, 0.0, 0.0, 0.0], ActionHead::Kernel),
            (vec![0.0, 1.0, 0.0, 0.0], ActionHead::Quant),
            (vec![0.0, 0.0, 1.0, 0.0], ActionHead::Device),
        ];
        let targets = [2usize, 0, 4];
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            p.zero_grad();
            let fw = p.forward_seq(&steps);
            let dlogits: Vec<Vec<f32>> = (0..3)
                .map(|t| {
                    let mut d = softmax(fw.logits(t));
                    d[targets[t]] -= 1.0;
                    d
                })
                .collect();
            let dvalues = vec![0.0; 3];
            p.backward_seq(&fw, &dlogits, &dvalues);
            opt.step(&mut p);
        }
        let fw = p.forward_seq(&steps);
        for (t, &target) in targets.iter().enumerate() {
            assert_eq!(
                LstmPolicy::greedy_action(fw.logits(t), fw.logits(t).len()),
                target,
                "step {t}"
            );
        }
    }

    #[test]
    fn epsilon_one_is_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let logits = [100.0f32, 0.0, 0.0];
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[LstmPolicy::sample_action(&logits, 3, 1.0, &mut rng)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "{counts:?} not uniform");
        }
    }

    #[test]
    fn greedy_respects_valid_mask() {
        let logits = [0.0f32, 1.0, 50.0, 100.0];
        assert_eq!(LstmPolicy::greedy_action(&logits, 2), 1);
        assert_eq!(LstmPolicy::greedy_action(&logits, 4), 3);
    }

    #[test]
    fn value_head_gradients_flow() {
        let mut p = tiny_policy(4);
        let steps = vec![(vec![0.5, 0.5, 0.5, 0.5], ActionHead::Resolution)];
        p.zero_grad();
        let fw = p.forward_seq(&steps);
        let dlogits = vec![vec![0.0; p.arity(ActionHead::Resolution)]];
        p.backward_seq(&fw, &dlogits, &[1.0]);
        assert!(p.value.0.grad.norm() > 0.0);
        assert!(p.wx.grad.norm() > 0.0, "value grad must reach the LSTM");
    }
}
