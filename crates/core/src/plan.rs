//! The access-plan IR: the traversal's vector access pattern as data.
//!
//! The paper's central observation is that the PLF's access pattern is
//! known *before* any likelihood math runs (§3.3–3.4): read skipping and
//! replacement decisions can both be derived from the upcoming traversal.
//! [`AccessPlan`] captures that pattern as an ordered sequence of
//! `{item, intent}` records with the first/last-access analysis computed
//! once at construction. Every layer speaks this IR: the tree crate lowers
//! a `TraversalPlan` into it, the engine submits it, and the
//! [`crate::VectorManager`] derives read-skip flags from it and walks it
//! with a [`PlanCursor`] that feeds the `NextUse` (Belady/OPT) replacement
//! strategy.

use crate::manager::{Intent, ItemId};

/// One planned vector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// The vector being accessed.
    pub item: ItemId,
    /// Whether the access reads existing contents or fully overwrites them.
    pub intent: Intent,
}

impl AccessRecord {
    /// A read access.
    pub fn read(item: ItemId) -> Self {
        AccessRecord {
            item,
            intent: Intent::Read,
        }
    }

    /// A full-overwrite access.
    pub fn write(item: ItemId) -> Self {
        AccessRecord {
            item,
            intent: Intent::Write,
        }
    }
}

/// An ordered access sequence plus the per-item analysis computed once:
/// sorted access positions, and the first-access partition into
/// *write-first* items (their first access overwrites them — the read-skip
/// set of §3.4) and *read-first* items (their first access needs valid
/// data from the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    records: Vec<AccessRecord>,
    n_items: usize,
    /// Every record's `(item, index into records)`, sorted and stored as
    /// two parallel columns: one item's accesses are a contiguous run of
    /// `sorted_pos`, ascending. Sized by the plan, not by `n_items` — a
    /// partial traversal touches a few dozen of thousands of items.
    sorted_items: Vec<ItemId>,
    sorted_pos: Vec<u32>,
    /// Items whose first access is a write, in first-access order.
    write_first: Vec<ItemId>,
    /// Items whose first access is a read, in first-access order.
    read_first: Vec<ItemId>,
}

impl AccessPlan {
    /// Build a plan over items `0..n_items`, computing the first-access
    /// analysis and per-item position lists. Panics if a record references
    /// an item outside the geometry.
    pub fn from_records(records: Vec<AccessRecord>, n_items: usize) -> Self {
        let mut by_item: Vec<(ItemId, u32)> = Vec::with_capacity(records.len());
        for (idx, rec) in records.iter().enumerate() {
            let i = rec.item as usize;
            assert!(i < n_items, "plan record for item {i} >= n_items {n_items}");
            by_item.push((rec.item, idx as u32));
        }
        by_item.sort_unstable();
        let (sorted_items, sorted_pos) = by_item.into_iter().unzip();
        let mut plan = AccessPlan {
            records,
            n_items,
            sorted_items,
            sorted_pos,
            write_first: Vec::new(),
            read_first: Vec::new(),
        };
        for (idx, rec) in plan.records.iter().enumerate() {
            if plan.positions_of(rec.item)[0] == idx as u32 {
                match rec.intent {
                    Intent::Write => plan.write_first.push(rec.item),
                    Intent::Read => plan.read_first.push(rec.item),
                }
            }
        }
        plan
    }

    /// The ordered access records.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Number of records in the plan.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the plan contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Geometry the plan was built for.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Items whose first access is a write (the read-skip set), in
    /// first-access order.
    pub fn write_first_items(&self) -> &[ItemId] {
        &self.write_first
    }

    /// Items whose first access is a read, in first-access order.
    pub fn read_first_items(&self) -> &[ItemId] {
        &self.read_first
    }

    /// Sorted record indices at which `item` is accessed (empty for an
    /// item the plan never touches).
    pub fn positions_of(&self, item: ItemId) -> &[u32] {
        let lo = self.sorted_items.partition_point(|&i| i < item);
        let run = self.sorted_items[lo..].partition_point(|&i| i == item);
        &self.sorted_pos[lo..lo + run]
    }

    /// Index and intent of the first access of `item`, if any.
    pub fn first_access(&self, item: ItemId) -> Option<(usize, Intent)> {
        let &idx = self.positions_of(item).first()?;
        Some((idx as usize, self.records[idx as usize].intent))
    }

    /// Index of the last access of `item`, if any.
    pub fn last_access(&self, item: ItemId) -> Option<usize> {
        self.positions_of(item).last().map(|&i| i as usize)
    }

    /// First record index `>= pos` that accesses `item`, if any. Used both
    /// by the cursor and by the NextUse strategy's farthest-next-use query.
    pub fn next_use_after(&self, item: ItemId, pos: usize) -> Option<usize> {
        let positions = self.positions_of(item);
        let at = positions.partition_point(|&p| (p as usize) < pos);
        positions.get(at).map(|&p| p as usize)
    }

    /// The plan's record stream repeated `k` times, re-analysed as one
    /// plan. A workload that runs the same traversal `k` times submits the
    /// per-traversal plan each round; its *complete* access string is this
    /// repetition — the future a full-run Belady oracle
    /// ([`crate::VectorManager::install_oracle_plan`]) needs to lower-bound
    /// every online strategy on the whole run, not just within one
    /// traversal. Note the analysis differs from the single plan's: only
    /// the first round's first accesses stay first, so write-first
    /// read-skip sets shrink accordingly.
    pub fn repeated(&self, k: usize) -> AccessPlan {
        let mut records = Vec::with_capacity(self.records.len() * k);
        for _ in 0..k {
            records.extend_from_slice(&self.records);
        }
        AccessPlan::from_records(records, self.n_items)
    }
}

/// Walks an [`AccessPlan`] as the manager serves requests.
///
/// The cursor is tolerant of off-plan accesses (an item with no remaining
/// planned use leaves the position unchanged) so interleaved ad-hoc reads —
/// debug probes, repeated branch-length evaluations — cannot derail it.
#[derive(Debug)]
pub struct PlanCursor {
    plan: AccessPlan,
    /// Index of the next unconsumed record.
    pos: usize,
}

impl PlanCursor {
    /// Start a cursor at the beginning of `plan`.
    pub fn new(plan: AccessPlan) -> Self {
        PlanCursor { plan, pos: 0 }
    }

    /// Index of the next unconsumed record.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Consume the next planned use of `item` at or after the current
    /// position, returning its record index. Returns `None` — leaving the
    /// position unchanged — if the plan holds no further use of `item`
    /// (an off-plan access).
    pub fn advance(&mut self, item: ItemId) -> Option<usize> {
        let next = self.plan.next_use_after(item, self.pos)?;
        self.pos = next + 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(records: &[(u32, Intent)], n: usize) -> AccessPlan {
        AccessPlan::from_records(
            records
                .iter()
                .map(|&(item, intent)| AccessRecord { item, intent })
                .collect(),
            n,
        )
    }

    use Intent::{Read as R, Write as W};

    #[test]
    fn first_access_partition() {
        // 3 read-first, 1 write-first; 3 is later written but read first.
        let p = plan(&[(3, R), (0, W), (3, R), (3, W), (1, R)], 5);
        assert_eq!(p.write_first_items(), &[0]);
        assert_eq!(p.read_first_items(), &[3, 1]);
        assert_eq!(p.first_access(3), Some((0, R)));
        assert_eq!(p.last_access(3), Some(3));
        assert_eq!(p.first_access(4), None);
    }

    #[test]
    fn next_use_queries() {
        let p = plan(&[(2, R), (0, W), (2, R), (1, W)], 3);
        assert_eq!(p.next_use_after(2, 0), Some(0));
        assert_eq!(p.next_use_after(2, 1), Some(2));
        assert_eq!(p.next_use_after(2, 3), None);
        assert_eq!(p.next_use_after(1, 0), Some(3));
        assert_eq!(p.positions_of(2), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "n_items")]
    fn out_of_geometry_record_rejected() {
        let _ = plan(&[(7, R)], 3);
    }

    #[test]
    fn cursor_follows_in_order_accesses() {
        let p = plan(&[(2, R), (1, R), (0, W), (3, W)], 4);
        let mut c = PlanCursor::new(p);
        assert_eq!(c.advance(2), Some(0));
        assert_eq!(c.advance(1), Some(1));
        assert_eq!(c.advance(0), Some(2));
        assert_eq!(c.advance(3), Some(3));
        assert_eq!(c.pos(), 4);
    }

    #[test]
    fn cursor_tolerates_off_plan_accesses() {
        let p = plan(&[(0, R), (1, W)], 3);
        let mut c = PlanCursor::new(p);
        assert_eq!(c.advance(2), None, "item 2 is not in the plan");
        assert_eq!(c.pos(), 0, "off-plan access must not move the cursor");
        assert_eq!(c.advance(0), Some(0));
        assert_eq!(c.advance(0), None, "no second use of item 0");
        assert_eq!(c.advance(1), Some(1));
    }

    #[test]
    fn a_jump_consumes_the_records_in_between() {
        let p = plan(&[(0, R), (1, R), (2, R), (3, R)], 4);
        let mut c = PlanCursor::new(p);
        assert_eq!(c.advance(3), Some(3));
        assert_eq!(c.pos(), 4);
        assert_eq!(c.advance(1), None, "record 1 was passed over");
    }

    #[test]
    fn repeated_concatenates_and_reanalyses() {
        let p = plan(&[(0, W), (1, R), (0, R)], 2);
        let r = p.repeated(3);
        assert_eq!(r.len(), 9);
        assert_eq!(r.n_items(), 2);
        assert_eq!(&r.records()[..3], p.records());
        assert_eq!(&r.records()[3..6], p.records());
        // First accesses belong to round one only: item 0 stays
        // write-first, item 1 read-first, nothing is counted twice.
        assert_eq!(r.write_first_items(), &[0]);
        assert_eq!(r.read_first_items(), &[1]);
        // Positions span all rounds.
        assert_eq!(r.positions_of(1), &[1, 4, 7]);
        // Identity repetition changes nothing.
        assert_eq!(p.repeated(1).records(), p.records());
    }
}
