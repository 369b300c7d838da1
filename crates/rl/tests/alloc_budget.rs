//! Allocation budget of the greedy roll-out — counted, not timed, so it
//! repeats exactly on any host. Before the panel kernel a roll-out of the
//! benchmark's policy allocated 574 times (about 12 a step: gate vectors,
//! state clones, input, logits); now the steps allocate nothing.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use murmuration_rl::env::greedy_rollout;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};

#[test]
fn warm_rollout_steps_do_not_allocate() {
    let sc = Scenario::device_swarm(4, SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 256, sc.arities(), 0x6d75_726d);
    let cond = sc.condition_from_indices(3, &[4; 3], &[5; 3]);
    let warm = greedy_rollout(&policy, &sc, &cond); // builds the weight pack

    // The whole episode: schedule, state (h, c, gates, logits), input
    // buffer, actions — set-up only, whatever the step count.
    let (actions, whole) = allocations_in(|| greedy_rollout(&policy, &sc, &cond));
    assert_eq!(actions.len(), 47);
    assert!(whole <= 7, "a warm greedy roll-out allocated {whole} times (parent: 574)");

    // The 47 steps themselves, once the state exists: none.
    let sched = sc.schedule();
    let mut st = policy.initial_state();
    let mut x = Vec::with_capacity(sc.input_dim());
    let (stepped, in_steps) = allocations_in(|| {
        let mut prev_frac = 0.0f32;
        let mut picked = [0usize; 47];
        for (t, &head) in sched.iter().enumerate() {
            sc.write_input(&mut x, &cond, t, sched.len(), head, prev_frac);
            policy.advance(&x, &mut st, head);
            picked[t] = LstmPolicy::greedy_action(st.logits(), st.logits().len());
            prev_frac = (picked[t] + 1) as f32 / st.logits().len() as f32;
        }
        picked
    });
    assert_eq!(in_steps, 0, "the steps of a roll-out must not allocate");
    assert_eq!(stepped.as_slice(), warm.as_slice());
}
