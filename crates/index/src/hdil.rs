//! The Hybrid Dewey Inverted List (HDIL) — paper, Section 4.4.
//!
//! HDIL stores the *full* inverted list sorted by Dewey ID (usable by the
//! DIL algorithm) plus only a small rank-sorted **prefix** of each list
//! (usable by the RDIL algorithm until it is exhausted). Because the full
//! list is Dewey-sorted, it doubles as the leaf level of the per-keyword
//! B+-tree: "only the non-leaf part of the B+-tree needs to be explicitly
//! stored" (Section 4.4.1) — realized here with
//! [`xrank_storage::btree::Interior`] built over the list's pages. This is
//! why HDIL's *index* column in Table 1 is orders of magnitude smaller than
//! RDIL's while its *list* column is only slightly larger than DIL's.

use crate::dil::DilIndex;
use crate::listio::{self, decode_dewey_page_pinned, ListInfo, ListMeta, ListReader};
use crate::posting::Posting;
use crate::rdil::rank_order;
use crate::SpaceBreakdown;
use xrank_dewey::{codec, DeweyId};
use xrank_graph::TermId;
use xrank_storage::btree::{CursorStats, Interior, MAX_SIBLING_HOPS};
use xrank_storage::{BufferPool, PageId, PageStore, SegmentId, StorageResult, PAGE_SIZE};

/// A located Dewey-list entry: list meta, page offset, slot index within
/// the decoded page, and the page's postings.
type LocatedEntry = (ListMeta, u32, usize, Vec<Posting>);

/// Fraction of each list stored rank-sorted (the "small fraction of the
/// inverted list sorted by rank" of Section 4.4.1).
pub const DEFAULT_PREFIX_FRACTION: f64 = 0.10;
/// Rank-sorted prefix floor: short lists are stored in full.
pub const MIN_PREFIX_ENTRIES: usize = 16;

/// A built HDIL.
#[derive(Debug)]
pub struct HdilIndex {
    /// The full Dewey-sorted lists (shared with the DIL algorithm).
    pub dil: DilIndex,
    /// Segment holding the interior B+-tree pages of all terms.
    pub interior_segment: SegmentId,
    interiors: Vec<Option<Interior>>,
    /// Segment holding the rank-sorted prefixes.
    pub prefix_segment: SegmentId,
    prefix_lists: Vec<Option<ListInfo>>,
}

impl HdilIndex {
    /// Bulk-builds with the default prefix sizing.
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
    ) -> StorageResult<HdilIndex> {
        Self::build_full(pool, postings, DEFAULT_PREFIX_FRACTION, MIN_PREFIX_ENTRIES, PAGE_SIZE)
    }

    /// Bulk-builds with explicit prefix sizing (ablation knob).
    pub fn build_with<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        prefix_fraction: f64,
        min_prefix: usize,
    ) -> StorageResult<HdilIndex> {
        Self::build_full(pool, postings, prefix_fraction, min_prefix, PAGE_SIZE)
    }

    /// Fully-parameterized build: prefix sizing plus the per-page byte
    /// budget scale-emulation knob.
    pub fn build_full<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        prefix_fraction: f64,
        min_prefix: usize,
        page_budget: usize,
    ) -> StorageResult<HdilIndex> {
        let (dil, firsts) = DilIndex::build_capturing(pool, postings, page_budget)?;
        let interior_segment = pool.store_mut().create_segment()?;
        let mut interiors = Vec::with_capacity(postings.len());
        for page_firsts in &firsts {
            if page_firsts.is_empty() {
                interiors.push(None);
            } else {
                interiors.push(Some(Interior::build(pool, interior_segment, page_firsts)?));
            }
        }

        let prefix_segment = pool.store_mut().create_segment()?;
        let mut prefix_lists = Vec::with_capacity(postings.len());
        for term_postings in postings {
            if term_postings.is_empty() {
                prefix_lists.push(None);
                continue;
            }
            let mut by_rank = term_postings.clone();
            rank_order(&mut by_rank);
            let keep = ((term_postings.len() as f64 * prefix_fraction).ceil() as usize)
                .max(min_prefix)
                .min(term_postings.len());
            by_rank.truncate(keep);
            prefix_lists.push(Some(listio::write_rank_list_budgeted(
                pool,
                prefix_segment,
                &by_rank,
                page_budget,
            )?));
        }

        Ok(HdilIndex { dil, interior_segment, interiors, prefix_segment, prefix_lists })
    }

    /// Metadata of a term's full (Dewey-sorted) list.
    pub fn meta(&self, term: TermId) -> Option<ListMeta> {
        self.dil.meta(term)
    }

    /// Reader over the full Dewey-sorted list (the DIL fallback path).
    pub fn dewey_reader(&self, term: TermId) -> Option<ListReader> {
        self.dil.reader(term)
    }

    /// Reader over the rank-sorted prefix (the RDIL starting path). The
    /// reader ends when the prefix is exhausted — the query processor must
    /// then switch to the DIL algorithm.
    pub fn rank_prefix_reader(&self, term: TermId) -> Option<ListReader> {
        self.prefix_lists
            .get(term.index())
            .and_then(|i| i.as_ref())
            .map(|info| ListReader::new(self.prefix_segment, info))
    }

    /// Entries in the rank-sorted prefix of `term`.
    pub fn prefix_len(&self, term: TermId) -> u32 {
        self.prefix_lists
            .get(term.index())
            .and_then(|i| i.as_ref())
            .map_or(0, |i| i.meta.entry_count)
    }

    /// Locates the first posting with `dewey >= target` in the Dewey list:
    /// returns the page offset, slot, and the decoded page.
    fn locate<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        target: &DeweyId,
    ) -> StorageResult<Option<LocatedEntry>> {
        let (Some(info), Some(interior)) =
            (self.dil.info(term), self.interiors.get(term.index()).copied().flatten())
        else {
            return Ok(None);
        };
        let meta = info.meta;
        let key = codec::encode_id(target);
        let mut page_off = interior.descend(pool, &key)?;
        loop {
            // Decode straight off the pinned frame — no staging copy.
            let page = pool.read(PageId::new(self.dil.segment, page_off))?;
            let postings = decode_dewey_page_pinned(&page)?;
            if let Some(slot) = postings.iter().position(|p| &p.dewey >= target) {
                return Ok(Some((meta, page_off, slot, postings)));
            }
            // Everything on this page sorts below target: advance.
            if page_off + 1 >= meta.start_page + meta.page_count {
                return Ok(Some((meta, page_off, postings.len(), postings)));
            }
            page_off += 1;
        }
    }

    /// The Section 4.3.2 probe against the Dewey-sorted list: smallest
    /// posting with `dewey >= target` and its predecessor.
    pub fn lowest_geq<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        target: &DeweyId,
    ) -> StorageResult<(Option<Posting>, Option<Posting>)> {
        let Some((meta, page_off, slot, postings)) = self.locate(pool, term, target)? else {
            return Ok((None, None));
        };
        let entry = postings.get(slot).cloned();
        let pred = if slot > 0 {
            postings.get(slot - 1).cloned()
        } else if page_off > meta.start_page {
            let prev = pool.read(PageId::new(self.dil.segment, page_off - 1))?;
            decode_dewey_page_pinned(&prev)?.pop()
        } else {
            None
        };
        Ok((entry, pred))
    }

    /// Opens a stateful probe cursor for `term` — the hot-path form of
    /// [`HdilIndex::lowest_geq`]. The cursor caches the decoded current
    /// list page across probes, so the TA loop's advancing targets reuse
    /// the decode instead of re-descending the interior levels and
    /// re-parsing the page each round.
    pub fn probe_cursor(&self, term: TermId) -> HdilProbeCursor {
        let located = match (
            self.dil.info(term),
            self.interiors.get(term.index()).copied().flatten(),
        ) {
            (Some(info), Some(interior)) => Some((info.meta, interior)),
            _ => None,
        };
        HdilProbeCursor {
            segment: self.dil.segment,
            located,
            current: None,
            stats: CursorStats::default(),
        }
    }

    /// All postings of `term` whose Dewey has `prefix` as a prefix.
    ///
    /// Answered from the in-memory skip table: jump straight to the block
    /// that can contain `prefix` (no interior descent, no page touched
    /// outside the subtree's range) and decode entries until the first one
    /// past the subtree — descendants are contiguous in Dewey order, so
    /// that entry ends the scan. This is the TA loop's `range_scan` hot
    /// path; block granularity (≤ 127 entries) is what keeps each
    /// candidate check from decoding whole pages.
    pub fn prefix_postings<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        prefix: &DeweyId,
    ) -> StorageResult<Vec<Posting>> {
        let Some(info) = self.dil.info(term) else {
            return Ok(Vec::new());
        };
        let mut r = ListReader::new(self.dil.segment, info);
        r.next_seek(pool, prefix)?;
        let mut out = Vec::new();
        while let Some(p) = r.peek(pool)? {
            if !prefix.is_ancestor_or_self_of(&p.dewey) {
                break;
            }
            out.push(r.next(pool)?.expect("peeked entry present"));
        }
        Ok(out)
    }

    /// Serializes the index directory.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use xrank_storage::wire::put_u32;
        self.dil.write_meta(w)?;
        put_u32(w, self.interior_segment.0)?;
        put_u32(w, self.interiors.len() as u32)?;
        for entry in &self.interiors {
            match entry {
                Some(i) => {
                    put_u32(w, 1)?;
                    put_u32(w, i.segment.0)?;
                    put_u32(w, i.root)?;
                    put_u32(w, i.height)?;
                }
                None => put_u32(w, 0)?,
            }
        }
        put_u32(w, self.prefix_segment.0)?;
        listio::write_list_table(w, &self.prefix_lists)
    }

    /// Deserializes a directory written by [`HdilIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<HdilIndex> {
        use xrank_storage::wire::get_u32;
        let dil = DilIndex::read_meta(r)?;
        let interior_segment = SegmentId(get_u32(r)?);
        let n = get_u32(r)?;
        let mut interiors = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            interiors.push(match get_u32(r)? {
                0 => None,
                1 => Some(Interior {
                    segment: SegmentId(get_u32(r)?),
                    root: get_u32(r)?,
                    height: get_u32(r)?,
                }),
                k => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad interior tag {k}"),
                    ))
                }
            });
        }
        let prefix_segment = SegmentId(get_u32(r)?);
        let prefix_lists = listio::read_list_table(r)?;
        Ok(HdilIndex { dil, interior_segment, interiors, prefix_segment, prefix_lists })
    }

    /// Table 1 space: lists = full Dewey list + rank prefixes
    /// (byte-granular); index = interior pages only.
    pub fn space<S: PageStore>(&self, pool: &BufferPool<S>) -> SpaceBreakdown {
        let dil_bytes = self.dil.used_bytes();
        let prefix_bytes: u64 =
            self.prefix_lists.iter().flatten().map(|i| i.meta.used_bytes).sum();
        SpaceBreakdown {
            list_bytes: dil_bytes + prefix_bytes,
            index_bytes: pool.store().page_count(self.interior_segment) as u64
                * PAGE_SIZE as u64,
        }
    }
}

/// A per-keyword stateful probe cursor over HDIL's Dewey-sorted list.
///
/// HDIL's B+-tree leaves *are* the list pages (Section 4.4.1), so the
/// cursor's pinned state is the decoded current page: forward probes walk
/// sibling pages from there (decoding each page once), and only backward
/// targets or long jumps re-descend the interior levels. Answers are
/// identical to [`HdilIndex::lowest_geq`] for every target.
#[derive(Debug, Clone)]
pub struct HdilProbeCursor {
    segment: SegmentId,
    /// The term's list + interior; `None` for absent terms.
    located: Option<(ListMeta, Interior)>,
    /// Decoded current page: `(page offset, postings)`.
    current: Option<(u32, Vec<Posting>)>,
    stats: CursorStats,
}

impl HdilProbeCursor {
    /// Seek-forward / re-descent counters since the cursor was opened.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Stateful [`HdilIndex::lowest_geq`]: identical answers, amortized
    /// probe cost.
    pub fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<Posting>, Option<Posting>)> {
        let Some((meta, interior)) = self.located else {
            return Ok((None, None));
        };
        self.stats.probes += 1;
        let last_page = meta.start_page + meta.page_count - 1;

        // Fast path: target at or after the cached page's first posting —
        // walk forward from it (bounded; a long jump descends instead).
        let forward_from = match &self.current {
            Some((off, postings)) if !postings.is_empty() && postings[0].dewey <= *target => {
                Some(*off)
            }
            _ => None,
        };
        let (mut page_off, descended) = match forward_from {
            Some(off) => {
                let mut off = off;
                let mut hops = 0u32;
                let mut reachable = true;
                while off < last_page && hops < MAX_SIBLING_HOPS {
                    let postings = self.decoded_page(pool, off)?;
                    if postings.last().is_some_and(|p| p.dewey >= *target) {
                        break;
                    }
                    off += 1;
                    hops += 1;
                }
                if off < last_page && hops >= MAX_SIBLING_HOPS {
                    // Re-check: did the walk actually reach a covering page?
                    let postings = self.decoded_page(pool, off)?;
                    reachable = postings.last().is_some_and(|p| p.dewey >= *target);
                }
                if reachable {
                    self.stats.seeks_forward += 1;
                    (off, false)
                } else {
                    let key = codec::encode_id(target);
                    self.stats.descents += 1;
                    (interior.descend(pool, &key)?, true)
                }
            }
            None => {
                let key = codec::encode_id(target);
                self.stats.descents += 1;
                (interior.descend(pool, &key)?, true)
            }
        };
        // After a descent the target may still lie past the landing page
        // (same forward scan `locate` does); walk until covered or last.
        if descended {
            while page_off < last_page {
                let postings = self.decoded_page(pool, page_off)?;
                if postings.last().is_some_and(|p| p.dewey >= *target) {
                    break;
                }
                page_off += 1;
            }
        }

        let postings = self.decoded_page(pool, page_off)?;
        let slot = postings.partition_point(|p| p.dewey < *target);
        let entry = postings.get(slot).cloned();
        let pred = if slot > 0 {
            postings.get(slot - 1).cloned()
        } else if page_off > meta.start_page {
            let prev = pool.read(PageId::new(self.segment, page_off - 1))?;
            decode_dewey_page_pinned(&prev)?.pop()
        } else {
            None
        };
        Ok((entry, pred))
    }

    /// The decoded postings of `page_off`, from the cache when current —
    /// each list page is parsed at most once per position change.
    fn decoded_page<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        page_off: u32,
    ) -> StorageResult<&Vec<Posting>> {
        let cached = matches!(&self.current, Some((off, _)) if *off == page_off);
        if !cached {
            let page = pool.read(PageId::new(self.segment, page_off))?;
            self.current = Some((page_off, decode_dewey_page_pinned(&page)?));
        }
        Ok(&self.current.as_ref().expect("page just cached").1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::direct_postings;
    use crate::rdil::RdilIndex;
    use xrank_graph::CollectionBuilder;
    use xrank_storage::MemStore;

    /// A corpus big enough to force multi-page lists.
    fn build_large() -> (BufferPool<MemStore>, HdilIndex, RdilIndex, xrank_graph::Collection)
    {
        let mut xml = String::from("<corpus>");
        for i in 0..400 {
            xml.push_str(&format!(
                "<paper><title>common word{i}</title><body>common text about topic{} repeated common</body></paper>",
                i % 7
            ));
        }
        xml.push_str("</corpus>");
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", &xml).unwrap();
        let c = b.build();
        let scores: Vec<f64> = (0..c.element_count())
            .map(|i| 1.0 / ((i % 97) + 1) as f64)
            .collect();
        let postings = direct_postings(&c, &scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let hdil = HdilIndex::build(&mut pool, &postings).unwrap();
        let rdil = RdilIndex::build(&mut pool, &postings).unwrap();
        (pool, hdil, rdil, c)
    }

    #[test]
    fn lowest_geq_agrees_with_rdil() {
        let (pool, hdil, rdil, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let probes = [
            DeweyId::from([0]),
            DeweyId::from([0, 0, 100]),
            DeweyId::from([0, 0, 250, 1]),
            DeweyId::from([0, 0, 399, 9, 9]),
            DeweyId::from([5, 0]),
        ];
        for probe in &probes {
            let (he, hp) = hdil.lowest_geq(&pool, term, probe).unwrap();
            let (re, rp) = rdil.lowest_geq(&pool, term, probe).unwrap();
            assert_eq!(
                he.as_ref().map(|p| &p.dewey),
                re.as_ref().map(|p| &p.dewey),
                "entry mismatch at {probe}"
            );
            assert_eq!(
                hp.as_ref().map(|p| &p.dewey),
                rp.as_ref().map(|p| &p.dewey),
                "pred mismatch at {probe}"
            );
        }
    }

    #[test]
    fn probe_cursor_agrees_with_fresh_probes() {
        let (pool, hdil, _, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let mut cur = hdil.probe_cursor(term);
        let probes = [
            DeweyId::from([0]),
            DeweyId::from([0, 0, 17]),
            DeweyId::from([0, 0, 100]),
            DeweyId::from([0, 0, 250, 1]),
            DeweyId::from([0, 0, 30]), // backward seek
            DeweyId::from([0, 0, 399, 9, 9]),
            DeweyId::from([5, 0]),
        ];
        for probe in &probes {
            let fresh = hdil.lowest_geq(&pool, term, probe).unwrap();
            let seeked = cur.lowest_geq(&pool, probe).unwrap();
            assert_eq!(fresh, seeked, "cursor diverged at {probe}");
        }
        let s = cur.stats();
        assert_eq!(s.probes, probes.len() as u64);
        assert_eq!(s.probes, s.seeks_forward + s.seeks_backward + s.descents);
        assert!(s.descents >= 1);

        // Absent terms answer without touching storage.
        let mut none = hdil.probe_cursor(TermId(u32::MAX - 1));
        let (e, p) = none.lowest_geq(&pool, &DeweyId::from([0])).unwrap();
        assert!(e.is_none() && p.is_none());
    }

    #[test]
    fn prefix_postings_agree_with_rdil() {
        let (pool, hdil, rdil, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        for prefix in [DeweyId::from([0]), DeweyId::from([0, 0, 42]), DeweyId::from([0, 0, 399])]
        {
            let h = hdil.prefix_postings(&pool, term, &prefix).unwrap();
            let r = rdil.prefix_postings(&pool, term, &prefix).unwrap();
            assert_eq!(h.len(), r.len(), "count mismatch under {prefix}");
            for (a, b) in h.iter().zip(r.iter()) {
                assert_eq!(a.dewey, b.dewey);
                assert_eq!(a.positions, b.positions);
            }
        }
    }

    #[test]
    fn rank_prefix_is_a_subset_in_rank_order() {
        let (pool, hdil, _, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let full = hdil.meta(term).unwrap().entry_count;
        let prefix = hdil.prefix_len(term);
        assert!(prefix > 0 && prefix < full, "prefix {prefix} of {full}");
        let mut r = hdil.rank_prefix_reader(term).unwrap();
        let mut prev = f32::INFINITY;
        while let Some(p) = r.next(&pool).unwrap() {
            assert!(p.rank <= prev);
            prev = p.rank;
        }
    }

    #[test]
    fn short_lists_stored_whole_in_prefix() {
        let (pool, hdil, _, c) = build_large();
        let term = c.vocabulary().lookup("word3").unwrap(); // occurs once
        assert_eq!(hdil.prefix_len(term), hdil.meta(term).unwrap().entry_count);
        let mut r = hdil.rank_prefix_reader(term).unwrap();
        assert!(r.next(&pool).unwrap().is_some());
    }

    #[test]
    fn index_is_tiny_compared_to_rdil() {
        let (pool, hdil, rdil, _) = build_large();
        let h = hdil.space(&pool);
        let r = rdil.space(&pool);
        assert!(
            h.index_bytes < r.index_bytes,
            "HDIL index {} should be far below RDIL {}",
            h.index_bytes,
            r.index_bytes
        );
    }

    #[test]
    fn absent_term() {
        let (pool, hdil, _, _) = build_large();
        let t = TermId(u32::MAX - 1);
        assert!(hdil.meta(t).is_none());
        let (e, p) = hdil.lowest_geq(&pool, t, &DeweyId::from([0])).unwrap();
        assert!(e.is_none() && p.is_none());
        assert!(hdil.prefix_postings(&pool, t, &DeweyId::from([0])).unwrap().is_empty());
    }
}
