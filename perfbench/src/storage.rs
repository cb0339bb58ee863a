//! A `DurableStorage` wrapper that forwards every call to the real
//! storage and counts and times the writes, so the storage layer's share
//! of a run is measured from outside `fup_tidb`.

use crate::trace;
use fup_tidb::{DurableStorage, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct Counters {
    append_calls: AtomicU64,
    append_bytes: AtomicU64,
    sync_calls: AtomicU64,
    sync_ns: AtomicU64,
    atomic_writes: AtomicU64,
    atomic_bytes: AtomicU64,
    atomic_ns: AtomicU64,
}

/// Totals read from a [`CountingStorage`]; subtract two readings to get
/// the calls made between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageTotals {
    pub append_calls: u64,
    pub append_bytes: u64,
    pub sync_calls: u64,
    pub sync_ms: f64,
    pub atomic_writes: u64,
    pub atomic_bytes: u64,
    pub atomic_ms: f64,
}

impl std::ops::Sub for StorageTotals {
    type Output = StorageTotals;
    fn sub(self, o: StorageTotals) -> StorageTotals {
        StorageTotals {
            append_calls: self.append_calls - o.append_calls,
            append_bytes: self.append_bytes - o.append_bytes,
            sync_calls: self.sync_calls - o.sync_calls,
            sync_ms: self.sync_ms - o.sync_ms,
            atomic_writes: self.atomic_writes - o.atomic_writes,
            atomic_bytes: self.atomic_bytes - o.atomic_bytes,
            atomic_ms: self.atomic_ms - o.atomic_ms,
        }
    }
}

impl std::ops::Add for StorageTotals {
    type Output = StorageTotals;
    fn add(self, o: StorageTotals) -> StorageTotals {
        StorageTotals {
            append_calls: self.append_calls + o.append_calls,
            append_bytes: self.append_bytes + o.append_bytes,
            sync_calls: self.sync_calls + o.sync_calls,
            sync_ms: self.sync_ms + o.sync_ms,
            atomic_writes: self.atomic_writes + o.atomic_writes,
            atomic_bytes: self.atomic_bytes + o.atomic_bytes,
            atomic_ms: self.atomic_ms + o.atomic_ms,
        }
    }
}

#[derive(Debug)]
pub struct CountingStorage {
    inner: Arc<dyn DurableStorage>,
    counters: Counters,
}

impl CountingStorage {
    pub fn new(inner: Arc<dyn DurableStorage>) -> Self {
        CountingStorage {
            inner,
            counters: Counters::default(),
        }
    }

    pub fn totals(&self) -> StorageTotals {
        let c = &self.counters;
        StorageTotals {
            append_calls: c.append_calls.load(Ordering::Relaxed),
            append_bytes: c.append_bytes.load(Ordering::Relaxed),
            sync_calls: c.sync_calls.load(Ordering::Relaxed),
            sync_ms: c.sync_ns.load(Ordering::Relaxed) as f64 / 1e6,
            atomic_writes: c.atomic_writes.load(Ordering::Relaxed),
            atomic_bytes: c.atomic_bytes.load(Ordering::Relaxed),
            atomic_ms: c.atomic_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl DurableStorage for CountingStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> Result<()> {
        let _span = trace::span("storage.append");
        self.counters.append_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(file, bytes)
    }

    fn sync(&self, file: &str) -> Result<()> {
        let _span = trace::span("storage.sync");
        let start = Instant::now();
        let out = self.inner.sync(file);
        self.counters.sync_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .sync_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        out
    }

    fn write_atomic(&self, file: &str, content: &[u8]) -> Result<()> {
        let _span = trace::span("storage.write_atomic");
        let start = Instant::now();
        let out = self.inner.write_atomic(file, content);
        self.counters.atomic_writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .atomic_bytes
            .fetch_add(content.len() as u64, Ordering::Relaxed);
        self.counters
            .atomic_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        out
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(file)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }
}
