//! Deterministic hash-based randomness for per-message jitter.
//!
//! Jitter must not depend on host thread scheduling, so it is derived by
//! hashing `(experiment seed, src, dst, per-pair sequence number)` rather
//! than drawn from a shared stream.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The sequence-independent part of [`hash_msg`]: the mix of
/// `(seed, src, dst)`. A message stream between a fixed pair computes it
/// once and finishes each message's hash with one [`splitmix64`].
#[inline]
pub fn hash_prefix(seed: u64, src: u64, dst: u64) -> u64 {
    let mut h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    h = splitmix64(h ^ src.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    splitmix64(h ^ dst.wrapping_mul(0x8EBC_6AF0_9C88_C6E3))
}

/// Hashes a tuple of message coordinates into a uniform `u64`.
#[inline]
pub fn hash_msg(seed: u64, src: u64, dst: u64, seq: u64) -> u64 {
    splitmix64(hash_prefix(seed, src, dst) ^ seq)
}

/// Maps a `u64` to a uniform sample in `[0, 1)`.
#[inline]
pub fn to_unit(h: u64) -> f64 {
    // 53 high bits -> double in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic multiplicative jitter factor with mean 1.
///
/// Uses a two-point mixture approximating a heavy-tailed delay: with
/// probability `p_spike` the message is slowed by `spike` (straggler VM,
/// hypervisor interference), otherwise it gets a mild uniform perturbation.
/// `sigma = 0` yields exactly 1.0. Mean is kept at ~1 so aggregate bandwidth
/// is unchanged; only variance grows with `sigma`.
#[inline]
pub fn jitter_factor(seed: u64, src: u64, dst: u64, seq: u64, sigma: f64) -> f64 {
    jitter_from_prefix(hash_prefix(seed, src, dst), seq, sigma)
}

/// [`jitter_factor`] from a precomputed [`hash_prefix`] of
/// `(seed, src, dst)`.
#[inline]
pub fn jitter_from_prefix(prefix: u64, seq: u64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let h = splitmix64(prefix ^ seq);
    let u = to_unit(h);
    let p_spike = 0.02;
    let spike = 1.0 + 8.0 * sigma;
    if u < p_spike {
        spike
    } else {
        // Uniform in [1 - sigma/2, 1 + sigma/2], shifted slightly down so the
        // overall mean (including spikes) stays close to 1.
        let v = to_unit(splitmix64(h));
        let base = 1.0 + sigma * (v - 0.5);
        (base - p_spike * (spike - 1.0)).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        // Consecutive seeds should differ in many bits.
        let d = (splitmix64(1) ^ splitmix64(2)).count_ones();
        assert!(d > 16, "poor mixing: {d} bits");
    }

    #[test]
    fn hash_msg_varies_with_each_coordinate() {
        let base = hash_msg(1, 2, 3, 4);
        assert_ne!(base, hash_msg(9, 2, 3, 4));
        assert_ne!(base, hash_msg(1, 9, 3, 4));
        assert_ne!(base, hash_msg(1, 2, 9, 4));
        assert_ne!(base, hash_msg(1, 2, 3, 9));
    }

    #[test]
    fn hash_msg_values_are_pinned() {
        // Message jitter (and so every modeled and threaded report) keys
        // off these exact bits.
        assert_eq!(hash_msg(1, 2, 3, 4), 0x82f1_24ce_56c3_3071);
        assert_eq!(hash_msg(2012, 999, 111, 123_456), 0x5f20_d360_6b5d_d438);
    }

    #[test]
    fn to_unit_in_range() {
        for i in 0..1000u64 {
            let u = to_unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zero_sigma_means_no_jitter() {
        for seq in 0..100 {
            assert_eq!(jitter_factor(7, 0, 1, seq, 0.0), 1.0);
        }
    }

    #[test]
    fn jitter_mean_is_near_one() {
        let sigma = 0.3;
        let n = 20_000u64;
        let mean: f64 = (0..n)
            .map(|s| jitter_factor(11, 3, 5, s, sigma))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn jitter_is_positive_and_bounded() {
        for s in 0..5000u64 {
            let j = jitter_factor(3, 1, 2, s, 0.5);
            assert!(j > 0.0 && j < 10.0, "j = {j}");
        }
    }

    #[test]
    fn jitter_has_spikes() {
        let sigma = 0.4;
        let spikes = (0..10_000u64)
            .filter(|&s| jitter_factor(5, 0, 1, s, sigma) > 2.0)
            .count();
        // ~2% spike probability.
        assert!(spikes > 100 && spikes < 400, "spikes = {spikes}");
    }
}
