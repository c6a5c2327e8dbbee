//! Seeded inputs and the payload oracle.
//!
//! Every payload byte the benchmark sends or stores is a pure function of
//! (seed, stream, version, offset), so a receiver can check each byte it
//! is handed without keeping a copy of what was sent, and a re-read of a
//! file after remount can be checked against nothing but the version the
//! oracle last wrote.

/// SplitMix64: a small, fast, well-mixed generator (Steele et al. 2014).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose of one seed.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(mix(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A log-uniform draw from `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + self.unit() * (h - l)).exp() as usize).clamp(lo, hi)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The oracle's byte source: which bytes belong at `offset` of version
/// `version` of stream (or file) `stream` under `seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    /// The workload seed.
    pub seed: u64,
    /// Stream, exchange or file id.
    pub stream: u64,
    /// File version (0 for streams and first contents).
    pub version: u64,
}

impl Payload {
    fn word(&self, index: u64) -> [u8; 8] {
        let key = self.seed
            ^ self.stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ self.version.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        mix(key).to_le_bytes()
    }

    /// Fills `buf` with the bytes at `[offset, offset + buf.len())`.
    pub fn fill(&self, offset: u64, buf: &mut [u8]) {
        let (mut at, mut i) = (offset, 0);
        while i < buf.len() {
            let word = self.word(at / 8);
            let skew = (at % 8) as usize;
            let n = (8 - skew).min(buf.len() - i);
            buf[i..i + n].copy_from_slice(&word[skew..skew + n]);
            i += n;
            at += n as u64;
        }
    }

    /// The bytes at `[offset, offset + len)`.
    pub fn bytes(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(offset, &mut v);
        v
    }

    /// Whether `buf` holds exactly the bytes at `[offset, ...)`.
    pub fn check(&self, offset: u64, buf: &[u8]) -> bool {
        let mut expect = [0u8; 4096];
        let mut done = 0;
        while done < buf.len() {
            let n = (buf.len() - done).min(expect.len());
            self.fill(offset + done as u64, &mut expect[..n]);
            if expect[..n] != buf[done..done + n] {
                return false;
            }
            done += n;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_a_function_of_its_coordinates() {
        let p = Payload {
            seed: 7,
            stream: 3,
            version: 1,
        };
        let whole = p.bytes(0, 100);
        assert_eq!(p.bytes(37, 20), whole[37..57].to_vec());
        assert!(p.check(5, &whole[5..90]));
        let other = Payload { version: 2, ..p };
        assert!(!other.check(0, &whole));
        let mut bad = whole.clone();
        bad[99] ^= 1;
        assert!(!p.check(0, &bad));
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut r = Rng::new(1, 2);
        for _ in 0..10_000 {
            let v = r.log_uniform(1, 16384);
            assert!((1..=16384).contains(&v));
        }
    }
}
