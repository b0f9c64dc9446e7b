// Seeded hazard: a hand-written StableHash impl (rule 3) — and why the
// rule exists: it skips `retries` and still compiles.
use super::Config;

pub trait StableHash {
    fn stable_hash(&self, h: &mut Vec<u8>);
}

impl StableHash for Config {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.extend_from_slice(&self.seed.to_le_bytes());
    }
}
