//! Set-associative cache model with LRU replacement and in-flight fills.
//!
//! Each line records the cycle at which its fill completes, so a software
//! prefetch issued too close to the demand access yields only a *partial*
//! latency hiding — this is what gives prefetch distance its interior
//! optimum in the empirical search (too small: fill not complete; too
//! large: line evicted again before use in a small L1).
//!
//! Flushing is O(1): every line carries the generation it was filled in,
//! and only lines of the cache's current generation are valid, so
//! [`Cache::flush_all`] just starts a new generation. This is what lets
//! the harness reuse one simulator across runs instead of rebuilding it.

/// Static configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheCfg {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.line * self.assoc)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    /// Generation the line was filled in; the line is valid only while
    /// this equals the cache's generation. Generation 0 is never current,
    /// so it marks a line invalid for good.
    gen: u32,
    dirty: bool,
    /// LRU timestamp (larger = more recently used).
    lru: u64,
    /// Cycle at which the line's fill completes (0 if long resident).
    fill_done: u64,
}

/// Result of probing a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Line present; data available at `max(now, fill_done)`.
    Hit {
        fill_done: u64,
    },
    Miss,
}

/// A line evicted by an insertion; dirty lines must be written back by the
/// caller (they cost bus bandwidth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    pub addr: u64,
    pub dirty: bool,
}

/// One level of set-associative cache.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheCfg,
    sets: u64,
    lines: Vec<Line>,
    tick: u64,
    /// Current generation (never 0).
    gen: u32,
}

impl Cache {
    pub fn new(cfg: CacheCfg) -> Self {
        Self::with_generation(cfg, 1)
    }

    /// A cache whose current generation is `gen` (tests use this to reach
    /// the wrap at `u32::MAX` quickly).
    fn with_generation(cfg: CacheCfg, gen: u32) -> Self {
        assert!(gen != 0, "generation 0 marks invalid lines");
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two: {:?}",
            cfg
        );
        assert!(cfg.line.is_power_of_two());
        Cache {
            cfg,
            sets,
            lines: vec![Line::default(); (sets * cfg.assoc) as usize],
            tick: 0,
            gen,
        }
    }

    pub fn cfg(&self) -> &CacheCfg {
        &self.cfg
    }

    #[inline]
    fn index(&self, addr: u64) -> (u64, u64) {
        let lineno = addr / self.cfg.line;
        let set = lineno & (self.sets - 1);
        let tag = lineno >> self.sets.trailing_zeros();
        (set, tag)
    }

    #[inline]
    fn set_slice(&mut self, set: u64) -> &mut [Line] {
        let a = (set * self.cfg.assoc) as usize;
        let b = a + self.cfg.assoc as usize;
        &mut self.lines[a..b]
    }

    /// Probe for the line containing `addr`; updates LRU on hit.
    pub fn probe(&mut self, addr: u64) -> Probe {
        let (set, tag) = self.index(addr);
        self.tick += 1;
        let tick = self.tick;
        let gen = self.gen;
        for l in self.set_slice(set) {
            if l.gen == gen && l.tag == tag {
                l.lru = tick;
                return Probe::Hit {
                    fill_done: l.fill_done,
                };
            }
        }
        Probe::Miss
    }

    /// Probe without disturbing LRU state (used by the harness/tests).
    pub fn peek(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let a = (set * self.cfg.assoc) as usize;
        self.lines[a..a + self.cfg.assoc as usize]
            .iter()
            .any(|l| l.gen == self.gen && l.tag == tag)
    }

    /// Insert the line containing `addr`, with its fill completing at
    /// `fill_done`. Returns the victim if a valid line was evicted.
    pub fn insert(&mut self, addr: u64, fill_done: u64, dirty: bool) -> Option<Evicted> {
        let (set, tag) = self.index(addr);
        self.tick += 1;
        let tick = self.tick;
        let line_bytes = self.cfg.line;
        let sets = self.sets;
        let set_bits = sets.trailing_zeros() as u64;
        let gen = self.gen;
        let slice = self.set_slice(set);
        // Already present (e.g. prefetch raced a demand fill): refresh.
        if let Some(l) = slice.iter_mut().find(|l| l.gen == gen && l.tag == tag) {
            l.lru = tick;
            l.dirty |= dirty;
            l.fill_done = l.fill_done.min(fill_done);
            return None;
        }
        // Choose victim: invalid first, else LRU.
        let victim = slice
            .iter_mut()
            .min_by_key(|l| if l.gen == gen { (1, l.lru) } else { (0, 0) })
            .expect("assoc >= 1");
        let evicted = if victim.gen == gen {
            let old_lineno = (victim.tag << set_bits) | set;
            Some(Evicted {
                addr: old_lineno * line_bytes,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        *victim = Line {
            tag,
            gen,
            dirty,
            lru: tick,
            fill_done,
        };
        evicted
    }

    /// Mark the line containing `addr` dirty (if present). Returns whether
    /// the line was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.tick += 1;
        let tick = self.tick;
        let gen = self.gen;
        for l in self.set_slice(set) {
            if l.gen == gen && l.tag == tag {
                l.dirty = true;
                l.lru = tick;
                return true;
            }
        }
        false
    }

    /// Invalidate the line containing `addr` (non-temporal store semantics).
    /// Returns the evicted line if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let (set, tag) = self.index(addr);
        let line_bytes = self.cfg.line;
        let gen = self.gen;
        for l in self.set_slice(set) {
            if l.gen == gen && l.tag == tag {
                let dirty = l.dirty;
                l.gen = 0;
                return Some(Evicted {
                    addr: addr / line_bytes * line_bytes,
                    dirty,
                });
            }
        }
        None
    }

    /// Drop all contents (cold-cache setup for out-of-cache timings).
    /// O(1): starting a new generation invalidates every line at once. The
    /// lines are rewritten only when the generation counter wraps, so a
    /// line stamped before the wrap can never match again.
    pub fn flush_all(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.lines.fill(Line::default());
            self.gen = 1;
        }
        self.tick = 0;
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.gen == self.gen).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 4 sets x 2 ways x 64B = 512B
    const TINY: CacheCfg = CacheCfg {
        size: 512,
        line: 64,
        assoc: 2,
        latency: 3,
    };

    fn tiny() -> Cache {
        Cache::new(TINY)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert_eq!(c.probe(0x1000), Probe::Miss);
        c.insert(0x1000, 100, false);
        assert!(matches!(c.probe(0x1000), Probe::Hit { fill_done: 100 }));
        // Same line, different offset.
        assert!(matches!(c.probe(0x103f), Probe::Hit { .. }));
        // Next line misses.
        assert_eq!(c.probe(0x1040), Probe::Miss);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        c.insert(0x0000, 0, false);
        c.insert(0x0100, 0, false);
        // Touch the first so the second is LRU.
        c.probe(0x0000);
        let ev = c.insert(0x0200, 0, false).expect("eviction");
        assert_eq!(ev.addr, 0x0100);
        assert!(!ev.dirty);
        assert!(c.peek(0x0000));
        assert!(!c.peek(0x0100));
        assert!(c.peek(0x0200));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(0x0000, 0, false);
        assert!(c.mark_dirty(0x0008));
        c.insert(0x0100, 0, false);
        let ev = c.insert(0x0200, 0, false).unwrap();
        assert!(ev.dirty, "dirty victim must be reported for writeback");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(0x0000, 0, true);
        let ev = c.invalidate(0x0010).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.addr, 0x0000);
        assert_eq!(c.probe(0x0000), Probe::Miss);
        assert!(c.invalidate(0x0000).is_none());
    }

    #[test]
    fn reinsert_refreshes_fill_time() {
        let mut c = tiny();
        c.insert(0x0000, 500, false);
        c.insert(0x0000, 200, true);
        match c.probe(0x0000) {
            Probe::Hit { fill_done } => assert_eq!(fill_done, 200),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        c.insert(0x0000, 0, false);
        c.insert(0x0040, 0, false);
        assert_eq!(c.resident_lines(), 2);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.probe(0x0000), Probe::Miss);
    }

    #[test]
    fn stale_generation_lines_are_invisible() {
        let mut c = tiny();
        // Fill both ways of set 0, one of them dirty.
        c.insert(0x0000, 7, true);
        c.insert(0x0100, 7, false);
        c.flush_all();
        assert!(!c.peek(0x0000));
        assert!(!c.peek(0x0100));
        assert!(!c.mark_dirty(0x0000), "stale line must not take a write");
        assert!(
            c.invalidate(0x0000).is_none(),
            "stale line is not evictable"
        );
        assert_eq!(c.probe(0x0100), Probe::Miss);
        assert_eq!(c.resident_lines(), 0);
        // Victim choice treats stale lines as free ways: filling the set
        // again reports no eviction, not even of the stale dirty line.
        assert_eq!(c.insert(0x0200, 0, false), None);
        assert_eq!(c.insert(0x0300, 0, false), None);
        assert_eq!(c.resident_lines(), 2);
        // Only now does a third line evict, and it evicts a live line.
        let ev = c.insert(0x0400, 0, false).expect("set full");
        assert_eq!(ev.addr, 0x0200);
        assert!(!ev.dirty);
        // An invalidated line is free again and never comes back.
        assert!(c.invalidate(0x0300).is_some());
        assert!(!c.peek(0x0300));
        assert_eq!(c.insert(0x0500, 0, false), None);
    }

    #[test]
    fn generation_wrap_clears_lines() {
        let mut c = Cache::with_generation(TINY, u32::MAX - 1);
        c.insert(0x0000, 0, true);
        c.flush_all();
        assert_eq!(c.gen, u32::MAX);
        assert_eq!(c.resident_lines(), 0);
        c.insert(0x0040, 0, false);
        assert!(c.peek(0x0040));
        c.flush_all();
        assert_eq!(c.gen, 1, "the wrap skips generation 0");
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.probe(0x0040), Probe::Miss);
        assert_eq!(c.insert(0x0000, 0, false), None);

        // A line stamped with generation 1 before the wrap must not come
        // back when the counter returns to 1.
        let mut old = tiny();
        old.insert(0x0080, 0, true);
        old.gen = u32::MAX;
        old.flush_all();
        assert_eq!(old.gen, 1);
        assert!(!old.peek(0x0080));
        assert_eq!(old.resident_lines(), 0);
    }

    #[test]
    fn sets_computed() {
        let cfg = CacheCfg {
            size: 16 * 1024,
            line: 64,
            assoc: 8,
            latency: 4,
        };
        assert_eq!(cfg.sets(), 32);
    }
}
