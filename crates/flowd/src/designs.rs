//! The table of designs the daemon has already read.
//!
//! A client labelling many flows sends the same design with every one of
//! them.  The table maps a request body the daemon has parsed before to the
//! design's fingerprint and `design` report section, so a flow whose QoR is
//! stored is answered by one store lookup: no parse, no hash of the graph.
//!
//! A body is keyed by its format, its length and a keyed 64-bit SipHash of
//! its bytes under a per-process [`RandomState`].  The QoR store already
//! keys designs by an unkeyed 64-bit FNV of their structure, so this key is
//! no weaker, and the per-process key means no client can craft two bodies
//! that collide.  Entries hold no graph and no body bytes; the table keeps
//! at most [`MAX_KNOWN_DESIGNS`] of them and forgets the oldest first.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use aig::io::Format;
use flow_core::Fingerprint;
use flowc::report::DesignReport;
use serde::Serialize;

/// Most request bodies `flowd` remembers at once (see `/stats` `designs`).
pub const MAX_KNOWN_DESIGNS: usize = 1024;

/// What identifies a request body: see the module documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BodyKey {
    format: Format,
    len: usize,
    digest: u64,
}

/// What the daemon learnt from parsing a body once.
#[derive(Debug, Clone)]
pub(crate) struct KnownDesign {
    /// The design's `floweval::fingerprint_design`: its QoR store key.
    pub(crate) fingerprint: Fingerprint,
    /// The reply's `design` section.
    pub(crate) report: DesignReport,
}

/// The `/stats` `designs` section.
#[derive(Debug, Serialize)]
pub(crate) struct DesignSummary {
    /// Bodies the table remembers.
    known: usize,
    /// `/run` requests answered from the table and the store, unparsed.
    hits: u64,
    /// `/run` requests that parsed their body.
    misses: u64,
}

/// The bounded body → design table shared by every worker.
#[derive(Debug, Default)]
pub(crate) struct DesignTable {
    hasher: RandomState,
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Entries {
    by_key: HashMap<BodyKey, KnownDesign>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<BodyKey>,
}

impl DesignTable {
    /// The key of `body`, read as `format`.
    pub(crate) fn key(&self, format: Format, body: &[u8]) -> BodyKey {
        BodyKey {
            format,
            len: body.len(),
            digest: self.hasher.hash_one(body),
        }
    }

    /// The design behind `key`, if the table remembers it.
    pub(crate) fn get(&self, key: &BodyKey) -> Option<KnownDesign> {
        self.entries
            .lock()
            .expect("design table lock")
            .by_key
            .get(key)
            .cloned()
    }

    /// Remembers the design parsed from the body keyed `key`, forgetting the
    /// oldest entry when the table is full.
    pub(crate) fn remember(&self, key: BodyKey, design: KnownDesign) {
        let mut entries = self.entries.lock().expect("design table lock");
        if entries.by_key.contains_key(&key) {
            return;
        }
        if entries.order.len() == MAX_KNOWN_DESIGNS {
            if let Some(oldest) = entries.order.pop_front() {
                entries.by_key.remove(&oldest);
            }
        }
        entries.by_key.insert(key, design);
        entries.order.push_back(key);
    }

    /// Counts a request answered without parsing.
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that parsed its body.
    pub(crate) fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time summary for `/stats`.
    pub(crate) fn summary(&self) -> DesignSummary {
        DesignSummary {
            known: self.entries.lock().expect("design table lock").order.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn known(n: u64) -> KnownDesign {
        KnownDesign {
            fingerprint: Fingerprint(n),
            report: DesignReport {
                name: format!("d{n}"),
                source: "wire:aag".to_string(),
                inputs: 0,
                outputs: 0,
                ands: 0,
                depth: 0,
                fingerprint: Fingerprint(n).to_string(),
            },
        }
    }

    #[test]
    fn keys_separate_format_and_content() {
        let table = DesignTable::default();
        let body = b"aag 0 0 0 0 0\n";
        assert_eq!(
            table.key(Format::AigerAscii, body),
            table.key(Format::AigerAscii, body)
        );
        assert_ne!(
            table.key(Format::AigerAscii, body),
            table.key(Format::Blif, body)
        );
        assert_ne!(
            table.key(Format::AigerAscii, body),
            table.key(Format::AigerAscii, b"aag 0 0 0 0 0\n\n")
        );
    }

    #[test]
    fn the_table_is_bounded_and_forgets_the_oldest() {
        let table = DesignTable::default();
        let keys: Vec<BodyKey> = (0..=MAX_KNOWN_DESIGNS as u64)
            .map(|n| table.key(Format::Blif, &n.to_le_bytes()))
            .collect();
        for (n, &key) in keys.iter().enumerate() {
            table.remember(key, known(n as u64));
        }
        assert_eq!(table.summary().known, MAX_KNOWN_DESIGNS);
        assert!(table.get(&keys[0]).is_none(), "the oldest is forgotten");
        let newest = table.get(&keys[MAX_KNOWN_DESIGNS]).expect("newest kept");
        assert_eq!(newest.fingerprint, Fingerprint(MAX_KNOWN_DESIGNS as u64));
        // Remembering a known key again changes nothing.
        table.remember(keys[1], known(7));
        assert_eq!(
            table.get(&keys[1]).expect("kept").fingerprint,
            Fingerprint(1)
        );
        assert_eq!(table.summary().known, MAX_KNOWN_DESIGNS);
    }
}
