//! Allocation budget of the greedy roll-out — counted, not timed, so it
//! repeats exactly on any host. Before the panel kernel a roll-out of the
//! benchmark's policy allocated 574 times (about 12 a step: gate vectors,
//! state clones, input, logits); now the steps allocate nothing, on the
//! calling thread or on the helper that takes half of every split step.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, enlist, enlisted_allocations_in};
use murmuration_rl::env::greedy_rollout_on;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_tensor::par::{Pool, Rounds};
use std::sync::Barrier;

#[test]
fn warm_rollout_steps_do_not_allocate() {
    let sc = Scenario::device_swarm(4, SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 256, sc.arities(), 0x6d75_726d);
    let cond = sc.condition_from_indices(3, &[4; 3], &[5; 3]);
    // This thread and the one helper of a pool of its own are every thread
    // that runs a part. Both block in their chunk until the other arrives,
    // so the helper runs one and enlists itself there.
    let pool = Pool::new(1);
    let meet = Barrier::new(2);
    pool.for_each(2, &|_| {
        meet.wait();
        enlist();
    });
    let warm = greedy_rollout_on(pool, &policy, &sc, &cond); // builds the weight pack

    // The whole episode, split: state (h, both h buffers, c, gates,
    // logits), input buffer, actions — set-up only, whatever the step count.
    let (actions, whole) = enlisted_allocations_in(|| greedy_rollout_on(pool, &policy, &sc, &cond));
    assert_eq!(actions, warm);
    assert_eq!(actions.len(), 47);
    assert!(whole <= 7, "a warm greedy roll-out allocated {whole} times (parent: 574)");

    // The 47 steps themselves, once the state exists: none, inline on this
    // thread and split across both.
    let sched = sc.schedule();
    let (mut st, mut x) = (policy.initial_state(), Vec::with_capacity(sc.input_dim()));
    let mut steps = |rounds: &mut Rounds<'_>| {
        enlisted_allocations_in(|| {
            let mut prev_frac = 0.0f32;
            let mut picked = [0usize; 47];
            for (t, &head) in sched.iter().enumerate() {
                sc.write_input(&mut x, &cond, t, sched.len(), head, prev_frac);
                policy.advance_on(rounds, &x, &mut st, head);
                picked[t] = LstmPolicy::greedy_action(st.logits(), st.logits().len());
                prev_frac = (picked[t] + 1) as f32 / st.logits().len() as f32;
            }
            picked
        })
    };
    let (stepped, in_steps) = pool.lockstep(policy.parts(), &mut steps);
    assert_eq!(in_steps, 0, "the split steps of a roll-out must not allocate");
    assert_eq!(stepped.as_slice(), warm.as_slice());
    let ((_, in_steps), here) = allocations_in(|| steps(&mut Rounds::inline(policy.parts())));
    assert_eq!((in_steps, here), (0, 0), "the inline steps of a roll-out must not allocate");
}
