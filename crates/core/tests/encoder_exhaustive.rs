//! Exhaustive check of the comparator-table encoder: for three
//! activation-like dictionaries (scales 0.08, 1.5 and 60), every non-NaN
//! `f32` — all finite values plus ±∞ — encodes through
//! [`OutputQuantizer::encode_slice`] to exactly the code
//! [`TensorDict::encode_value`] gives it.
//!
//! About a minute per dictionary on two threads in release mode, so it is
//! `#[ignore]`d; run it with
//!
//! ```sh
//! cargo test --release -p mokey-core --test encoder_exhaustive -- --ignored --nocapture
//! ```

use mokey_core::curve::ExpCurve;
use mokey_core::dict::TensorDict;
use mokey_core::quantizer::OutputQuantizer;
use mokey_tensor::init::GaussianMixture;

/// Bit patterns per work block.
const BLOCK: u64 = 1 << 16;
const WORKERS: u64 = 2;

/// Mismatching values among the non-NaN bit patterns of blocks
/// `worker, worker + WORKERS, …`.
fn mismatches(engine: &OutputQuantizer, worker: u64) -> u64 {
    let dict = engine.dict();
    let mut values = Vec::with_capacity(BLOCK as usize);
    let mut bits = Vec::with_capacity(BLOCK as usize);
    let mut bad = 0;
    for block in (worker..(1u64 << 32) / BLOCK).step_by(WORKERS as usize) {
        values.clear();
        values.extend(
            (block * BLOCK..(block + 1) * BLOCK)
                .map(|b| f32::from_bits(b as u32))
                .filter(|v| !v.is_nan()),
        );
        bits.resize(values.len(), 0);
        engine.encode_slice(&values, &mut bits);
        for (&v, &b) in values.iter().zip(&bits) {
            let expect = dict.encode_value(v).to_bits();
            if b != expect {
                if bad < 5 {
                    eprintln!(
                        "mismatch at {v:e} ({:#010x}): table {b:#07b}, spec {expect:#07b}",
                        v.to_bits()
                    );
                }
                bad += 1;
            }
        }
    }
    bad
}

#[test]
#[ignore = "exhaustive over every f32: about a minute per dictionary on 2 threads (release)"]
fn comparator_table_equals_encode_value_on_every_f32() {
    for (seed, std) in [(1u64, 0.08f64), (2, 1.5), (3, 60.0)] {
        let sample = GaussianMixture::activation_like(0.1 * std, std).sample_matrix(64, 64, seed);
        let dict =
            TensorDict::for_values(sample.as_slice(), &ExpCurve::paper(), &Default::default())
                .expect("non-degenerate sample");
        let engine = OutputQuantizer::new(dict);
        let start = std::time::Instant::now();
        let bad: u64 = std::thread::scope(|s| {
            let engine = &engine;
            let workers: Vec<_> =
                (0..WORKERS).map(|w| s.spawn(move || mismatches(engine, w))).collect();
            workers.into_iter().map(|h| h.join().expect("worker")).sum()
        });
        println!(
            "scale {std}: {} thresholds, {bad} mismatches over every non-NaN f32 in {:.1} s",
            engine.comparator_count(),
            start.elapsed().as_secs_f64()
        );
        assert_eq!(bad, 0, "scale {std}: table disagrees with encode_value");
    }
}
