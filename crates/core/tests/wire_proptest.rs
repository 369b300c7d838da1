//! Property tests for the wire frame decoder: `wire::decode` is the
//! first thing that touches bytes off a (real, now) network, so it must
//! never panic — every input, however mangled, resolves to `Ok` or a typed
//! `WireError`.
//!
//! Three adversaries:
//! * arbitrary byte strings (fuzzing the parser cold),
//! * random truncations of valid frames (a connection cut mid-frame),
//! * single-byte mutations of valid frames (link corruption — which the
//!   lane-FNV-1a checksum must always catch: each of its steps is
//!   invertible, so one changed byte always changes the sum).

use murmuration_core::wire;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::{Shape, Tensor};
use proptest::collection::vec;
use proptest::test_runner::{Config as ProptestConfig, TestRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Builds a valid frame from a deterministic tensor.
fn valid_frame(seed: u64, bits: BitWidth) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Tensor::rand_uniform(Shape::nchw(1, 3, 5, 4), 1.0, &mut rng);
    wire::encode(&t, bits)
}

fn decode_never_panics(bytes: &[u8]) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| wire::decode(bytes).map(|_| ())));
    match outcome {
        Ok(_ok_or_wire_error) => Ok(()),
        Err(_) => Err(format!(
            "decode panicked on {} bytes: {:?}...",
            bytes.len(),
            &bytes[..bytes.len().min(24)]
        )),
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(400));
    runner
        .run(&vec(0u8..=255u8, 0..512), |bytes| {
            decode_never_panics(&bytes).map_err(proptest::test_runner::TestCaseError::fail)?;
            Ok(())
        })
        .unwrap();
}

#[test]
fn arbitrary_bytes_with_valid_magic_still_never_panic() {
    // Force the parser past the magic check so the deeper fields get
    // fuzzed too, not just rejected at byte 0.
    let mut runner = TestRunner::new(ProptestConfig::with_cases(400));
    runner
        .run(&vec(0u8..=255u8, 0..256), |mut bytes| {
            let magic = b"MWIR";
            for (i, &m) in magic.iter().enumerate() {
                if i < bytes.len() {
                    bytes[i] = m;
                }
            }
            if bytes.len() > 4 {
                bytes[4] = wire::VERSION;
            }
            decode_never_panics(&bytes).map_err(proptest::test_runner::TestCaseError::fail)?;
            Ok(())
        })
        .unwrap();
}

#[test]
fn truncations_of_valid_frames_are_typed_errors() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(300));
    runner
        .run(&(0u64..50, 0usize..3, 0.0f64..1.0), |(seed, which_bits, frac)| {
            let bits = [BitWidth::B8, BitWidth::B16, BitWidth::B32][which_bits];
            let frame = valid_frame(seed, bits);
            let cut = ((frame.len() as f64) * frac) as usize;
            let truncated = &frame[..cut.min(frame.len().saturating_sub(1))];
            decode_never_panics(truncated).map_err(proptest::test_runner::TestCaseError::fail)?;
            if wire::decode(truncated).is_ok() {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "truncation to {cut}/{} bytes decoded successfully",
                    frame.len()
                )));
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn single_byte_mutations_of_valid_frames_never_pass_the_checksum() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(300));
    runner
        .run(
            &(0u64..50, 0usize..3, 0.0f64..1.0, 1u8..=255u8),
            |(seed, which_bits, pos_frac, xor)| {
                let bits = [BitWidth::B8, BitWidth::B16, BitWidth::B32][which_bits];
                let mut frame = valid_frame(seed, bits);
                let pos = (((frame.len() - 1) as f64) * pos_frac) as usize;
                frame[pos] ^= xor; // xor != 0: a real change, somewhere
                decode_never_panics(&frame).map_err(proptest::test_runner::TestCaseError::fail)?;
                if wire::decode(&frame).is_ok() {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "byte {pos} ^= {xor:#04x} went undetected in a {}-byte frame",
                        frame.len()
                    )));
                }
                Ok(())
            },
        )
        .unwrap();
}

#[test]
fn valid_frames_still_decode_after_all_that() {
    // Sanity guard for the generators above: the unmutated frames decode.
    for seed in 0..10u64 {
        for bits in [BitWidth::B8, BitWidth::B16, BitWidth::B32] {
            let frame = valid_frame(seed, bits);
            assert!(wire::decode(&frame).is_ok());
        }
    }
}
