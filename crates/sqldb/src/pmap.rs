//! A persistent ordered map: a path-copying B+tree.
//!
//! [`PMap`] is the one ordered-map structure behind every piece of sqldb
//! state that MVCC snapshots share with the live database — resident
//! rowid maps, secondary indexes and the frozen-table cache. Nodes are
//! `Arc`'d, and cloning a map is one root refcount bump, so a snapshot
//! *is* a root pointer. Every write walks root to leaf through
//! `Arc::make_mut`: a node only this map owns is mutated in place, a
//! node some snapshot still shares is copied first (itself only — its
//! children are shared by the copy). A write under live snapshots
//! therefore copies O(log n) nodes, never the whole map, and dropping an
//! old snapshot frees only the nodes no newer version shares.
//!
//! Leaves hold up to 16 sorted entries; branches hold up to 16 children
//! split by separator keys (child `i` covers `keys[i-1] <= k < keys[i]`),
//! kept in an `Arc` of their own so copying a branch because a child
//! changed shares them. Nodes are searched linearly: the comparisons of a
//! scan are independent loads the CPU overlaps, where a binary search
//! waits out one cache miss per step. Rebalancing on delete is lazy: an
//! empty node is unlinked, and an underfull node merges into a neighbour
//! only when the pair fits in one node. Ranged iteration keeps one stack
//! of unvisited sibling slices per level, so it runs in either direction
//! without parent pointers (which path copying could not keep valid).

use std::borrow::Borrow;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Maximum entries per leaf and children per branch.
const MAX: usize = 16;
/// Below this size a node tries to merge with a neighbour on delete.
const MIN: usize = MAX / 4;

#[derive(Clone)]
enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    /// Separators are shared between a branch and its copies: copying a
    /// branch because a child changed leaves them as they are.
    Branch {
        keys: Arc<Vec<K>>,
        kids: Vec<Arc<Node<K, V>>>,
    },
}

impl<K, V> Node<K, V> {
    fn size(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Branch { kids, .. } => kids.len(),
        }
    }
}

/// Child of a branch whose key range holds `key`.
fn child_index<K: Borrow<Q>, Q: Ord + ?Sized>(keys: &[K], key: &Q) -> usize {
    keys.iter().position(|s| s.borrow() > key).unwrap_or(keys.len())
}

fn leaf_search<K: Borrow<Q>, V, Q: Ord + ?Sized>(es: &[(K, V)], key: &Q) -> Result<usize, usize> {
    for (i, (k, _)) in es.iter().enumerate() {
        match k.borrow().cmp(key) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => return Ok(i),
            std::cmp::Ordering::Greater => return Err(i),
        }
    }
    Err(es.len())
}

/// A persistent ordered map with O(1) clone and O(log n) path-copying
/// writes. See the module docs.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap { root: self.root.clone(), len: self.len }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry. Snapshots sharing the old root keep it.
    pub fn clear(&mut self) {
        self.root = None;
        self.len = 0;
    }

    /// All entries in ascending key order.
    pub fn iter(&self) -> Range<'_, K, V> {
        Range::seek(self.root.as_deref(), Bound::Unbounded, Bound::Unbounded, false)
    }

    /// The largest key.
    pub fn last_key(&self) -> Option<&K> {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Branch { kids, .. } => node = kids.last()?,
                Node::Leaf(es) => return es.last().map(|(k, _)| k),
            }
        }
    }

    /// The value stored under `key`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Branch { keys, kids } => node = &kids[child_index(keys, key)],
                Node::Leaf(es) => return leaf_search(es, key).ok().map(|i| &es[i].1),
            }
        }
    }

    /// True when `key` is present.
    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.get(key).is_some()
    }
}

impl<K: Ord + Clone, V> PMap<K, V> {
    /// Entries with keys within `(lo, hi)`, ascending. An empty or
    /// inverted interval yields nothing.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Range<'_, K, V> {
        Range::seek(self.root.as_deref(), lo, hi.cloned(), false)
    }

    /// Entries with keys within `(lo, hi)`, descending.
    pub fn range_rev(&self, lo: Bound<&K>, hi: Bound<&K>) -> Range<'_, K, V> {
        Range::seek(self.root.as_deref(), hi, lo.cloned(), true)
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Inserts `val` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let mut old = None;
        self.put(key, |slot| match slot {
            Some(v) => {
                old = Some(std::mem::replace(v, val));
                None
            }
            None => Some(val),
        });
        old
    }

    /// Applies `f` to the value under `key`, first inserting
    /// `V::default()` when the key is absent (`BTreeMap`'s
    /// `entry(key).or_default()`) — one descent either way.
    pub fn upsert(&mut self, key: K, f: impl FnOnce(&mut V))
    where
        V: Default,
    {
        self.put(key, |slot| match slot {
            Some(v) => {
                f(v);
                None
            }
            None => {
                let mut v = V::default();
                f(&mut v);
                Some(v)
            }
        });
    }

    /// One copying descent to `key`'s slot: `f` gets the present value,
    /// or `None` and returns the value to insert.
    fn put(&mut self, key: K, f: impl FnOnce(Option<&mut V>) -> Option<V>) {
        let root = self.root.get_or_insert_with(|| Arc::new(Node::Leaf(Vec::new())));
        let (added, split) = insert_rec(Arc::make_mut(root), key, f);
        if let Some((sep, right)) = split {
            let left = self.root.take().expect("root exists");
            self.root =
                Some(Arc::new(Node::Branch { keys: Arc::new(vec![sep]), kids: vec![left, right] }));
        }
        if added {
            self.len += 1;
        }
    }

    /// Removes `key`, returning its value. A miss copies nothing.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let path = self.locate(key)?;
        Some(self.remove_path(&path))
    }

    /// Applies `f` to the value under `key` and removes the entry when
    /// `f` returns false, with one key search. Returns whether the key
    /// was present; a miss copies nothing.
    pub fn update_or_remove<Q: Ord + ?Sized>(
        &mut self,
        key: &Q,
        f: impl FnOnce(&mut V) -> bool,
    ) -> bool
    where
        K: Borrow<Q>,
    {
        let Some(path) = self.locate(key) else { return false };
        if !f(&mut self.leaf_mut(&path)[path.slot].1) {
            self.remove_path(&path);
        }
        true
    }

    fn remove_path(&mut self, path: &Path) -> V {
        let root = Arc::make_mut(self.root.as_mut().expect("a located key has a root"));
        let old = remove_at(root, &path.kids[..path.depth], path.slot);
        self.len -= 1;
        // Shrink the tree past roots left with a single child.
        while let Some(root) = &self.root {
            self.root = match &**root {
                Node::Branch { kids, .. } if kids.len() == 1 => Some(Arc::clone(&kids[0])),
                Node::Branch { kids, .. } if kids.is_empty() => None,
                Node::Leaf(es) if es.is_empty() => None,
                _ => break,
            };
        }
        old
    }

    /// The leaf `path` ends in, with every node on the way made unique.
    fn leaf_mut(&mut self, path: &Path) -> &mut Vec<(K, V)> {
        let mut node = Arc::make_mut(self.root.as_mut().expect("a located key has a root"));
        for &i in &path.kids[..path.depth] {
            node = match node {
                Node::Branch { kids, .. } => Arc::make_mut(&mut kids[i as usize]),
                Node::Leaf(_) => unreachable!("paths end at a leaf"),
            };
        }
        match node {
            Node::Leaf(es) => es,
            Node::Branch { .. } => unreachable!("paths end at a leaf"),
        }
    }
}

/// Where a present key sits: the child taken at each branch from the
/// root down, then the slot in the leaf. Found by one read-only descent,
/// so a write copies nothing until the key is known to exist, and the
/// copying descent that follows repeats no key comparisons.
struct Path {
    kids: [u8; MAX_DEPTH],
    depth: usize,
    slot: usize,
}

/// Far deeper than any reachable tree: a level is only added when the
/// root overflows with `MAX + 1` children, and a branch below `MIN`
/// children merges unless its neighbour is nearly full.
const MAX_DEPTH: usize = 48;

impl<K: Ord, V> PMap<K, V> {
    fn locate<Q: Ord + ?Sized>(&self, key: &Q) -> Option<Path>
    where
        K: Borrow<Q>,
    {
        let mut node = self.root.as_deref()?;
        let mut path = Path { kids: [0; MAX_DEPTH], depth: 0, slot: 0 };
        loop {
            match node {
                Node::Branch { keys, kids } => {
                    let i = child_index(keys, key);
                    path.kids[path.depth] = i as u8;
                    path.depth += 1;
                    node = &kids[i];
                }
                Node::Leaf(es) => {
                    path.slot = leaf_search(es, key).ok()?;
                    return Some(path);
                }
            }
        }
    }
}

type Split<K, V> = Option<(K, Arc<Node<K, V>>)>;

/// Returns whether an entry was added, and the split-off right sibling
/// (with its separator) when `node` overflowed.
fn insert_rec<K: Ord + Clone, V: Clone>(
    node: &mut Node<K, V>,
    key: K,
    f: impl FnOnce(Option<&mut V>) -> Option<V>,
) -> (bool, Split<K, V>) {
    match node {
        Node::Leaf(es) => match leaf_search(es, &key) {
            Ok(i) => {
                f(Some(&mut es[i].1));
                (false, None)
            }
            Err(i) => {
                let Some(val) = f(None) else { return (false, None) };
                let appended = i == es.len();
                es.insert(i, (key, val));
                if es.len() <= MAX {
                    return (true, None);
                }
                // Ascending inserts (auto-assigned rowids) leave full
                // leaves behind instead of half-full ones.
                let at = if appended { MAX } else { es.len() / 2 };
                let right = es.split_off(at);
                let sep = right[0].0.clone();
                (true, Some((sep, Arc::new(Node::Leaf(right)))))
            }
        },
        Node::Branch { keys, kids } => {
            let i = child_index(keys, &key);
            let (added, split) = insert_rec(Arc::make_mut(&mut kids[i]), key, f);
            let Some((sep, right)) = split else { return (added, None) };
            let keys = Arc::make_mut(keys);
            keys.insert(i, sep);
            kids.insert(i + 1, right);
            if kids.len() <= MAX {
                return (added, None);
            }
            let mid = kids.len() / 2;
            let right_kids = kids.split_off(mid);
            let mut right_keys = keys.split_off(mid - 1);
            let sep = right_keys.remove(0);
            let right = Node::Branch { keys: Arc::new(right_keys), kids: right_kids };
            (added, Some((sep, Arc::new(right))))
        }
    }
}

fn remove_at<K: Clone, V: Clone>(node: &mut Node<K, V>, kids_path: &[u8], slot: usize) -> V {
    match node {
        Node::Leaf(es) => es.remove(slot).1,
        Node::Branch { keys, kids } => {
            let i = kids_path[0] as usize;
            let old = remove_at(Arc::make_mut(&mut kids[i]), &kids_path[1..], slot);
            if kids[i].size() < MIN {
                rebalance(keys, kids, i);
            }
            old
        }
    }
}

/// Unlinks child `i` when empty, or merges it with a neighbour when the
/// pair fits in one node; otherwise leaves it underfull.
fn rebalance<K: Clone, V: Clone>(
    keys: &mut Arc<Vec<K>>,
    kids: &mut Vec<Arc<Node<K, V>>>,
    i: usize,
) {
    if kids[i].size() == 0 {
        kids.remove(i);
        if !keys.is_empty() {
            Arc::make_mut(keys).remove(i.saturating_sub(1));
        }
        return;
    }
    let j = if i + 1 < kids.len() {
        i
    } else if i > 0 {
        i - 1
    } else {
        return;
    };
    if kids[j].size() + kids[j + 1].size() > MAX {
        return;
    }
    let right = kids.remove(j + 1);
    let sep = Arc::make_mut(keys).remove(j);
    let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
    match (Arc::make_mut(&mut kids[j]), right) {
        (Node::Leaf(l), Node::Leaf(r)) => l.extend(r),
        (Node::Branch { keys: lk, kids: lkids }, Node::Branch { keys: rk, kids: rkids }) => {
            let lk = Arc::make_mut(lk);
            lk.push(sep);
            lk.extend(rk.iter().cloned());
            lkids.extend(rkids);
        }
        _ => unreachable!("siblings sit on one level"),
    }
}

/// An ordered cursor over a [`PMap`] key range, in either direction.
///
/// `stack` holds, per branch level above the current leaf, the sibling
/// subtrees not yet visited in the direction of travel; `leaf` is the
/// unvisited part of the current leaf. `stop` is the far bound, checked
/// per entry.
pub struct Range<'a, K, V> {
    stack: Vec<&'a [Arc<Node<K, V>>]>,
    leaf: &'a [(K, V)],
    stop: Bound<K>,
    rev: bool,
}

impl<'a, K: Ord, V> Range<'a, K, V> {
    /// Positions a cursor at `start` (the low bound going forward, the
    /// high bound in reverse) that ends at `stop`.
    fn seek(root: Option<&'a Node<K, V>>, start: Bound<&K>, stop: Bound<K>, rev: bool) -> Self {
        let mut it = Range { stack: Vec::new(), leaf: &[], stop, rev };
        let Some(mut node) = root else { return it };
        loop {
            match node {
                Node::Branch { keys, kids } => {
                    let i = match (start, rev) {
                        (Bound::Unbounded, false) => 0,
                        (Bound::Unbounded, true) => kids.len() - 1,
                        (Bound::Excluded(k), true) => keys.partition_point(|s| s < k),
                        (Bound::Included(k) | Bound::Excluded(k), _) => child_index(keys, k),
                    };
                    it.stack.push(if rev { &kids[..i] } else { &kids[i + 1..] });
                    node = &kids[i];
                }
                Node::Leaf(es) => {
                    // Forward from an included bound (or backward from an
                    // excluded one) the cursor sits before the first key
                    // >= k, otherwise before the first key > k.
                    let p = match start {
                        Bound::Unbounded if rev => es.len(),
                        Bound::Unbounded => 0,
                        Bound::Included(k) | Bound::Excluded(k) => {
                            if rev == matches!(start, Bound::Excluded(_)) {
                                es.partition_point(|(x, _)| x < k)
                            } else {
                                es.partition_point(|(x, _)| x <= k)
                            }
                        }
                    };
                    it.leaf = if rev { &es[..p] } else { &es[p..] };
                    return it;
                }
            }
        }
    }
}

impl<'a, K: Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let next = if self.rev { self.leaf.split_last() } else { self.leaf.split_first() };
            if let Some((entry, rest)) = next {
                self.leaf = rest;
                let (k, v) = entry;
                let inside = match &self.stop {
                    Bound::Unbounded => true,
                    Bound::Included(s) if self.rev => k >= s,
                    Bound::Included(s) => k <= s,
                    Bound::Excluded(s) if self.rev => k > s,
                    Bound::Excluded(s) => k < s,
                };
                if !inside {
                    self.stack.clear();
                    self.leaf = &[];
                    return None;
                }
                return Some((k, v));
            }
            // Leaf exhausted: climb to the nearest level with an unvisited
            // sibling, then descend to that sibling's near edge.
            let mut node = loop {
                let level = self.stack.last_mut()?;
                let sibling = if self.rev { level.split_last() } else { level.split_first() };
                match sibling {
                    Some((n, rest)) => {
                        *level = rest;
                        break &**n;
                    }
                    None => {
                        self.stack.pop();
                    }
                }
            };
            loop {
                match node {
                    Node::Branch { kids, .. } => {
                        let (n, rest) = if self.rev {
                            kids.split_last().expect("branches are never empty")
                        } else {
                            kids.split_first().expect("branches are never empty")
                        };
                        self.stack.push(rest);
                        node = n;
                    }
                    Node::Leaf(es) => {
                        self.leaf = es;
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Addresses of every node reachable from the root.
    fn nodes<K, V>(m: &PMap<K, V>) -> HashSet<*const Node<K, V>> {
        let mut out = HashSet::new();
        let mut todo: Vec<&Arc<Node<K, V>>> = m.root.iter().collect();
        while let Some(n) = todo.pop() {
            out.insert(Arc::as_ptr(n));
            if let Node::Branch { kids, .. } = &**n {
                todo.extend(kids);
            }
        }
        out
    }

    fn height<K, V>(m: &PMap<K, V>) -> usize {
        let mut h = 0;
        let mut node = m.root.as_deref();
        while let Some(n) = node {
            h += 1;
            node = match n {
                Node::Branch { kids, .. } => Some(&kids[0]),
                Node::Leaf(_) => None,
            };
        }
        h
    }

    #[test]
    fn a_write_under_a_snapshot_copies_one_path() {
        let mut m: PMap<i64, i64> = (0..10_000).map(|i| (i, i)).collect();
        assert!(height(&m) >= 3);
        let snap = m.clone();
        let shared = nodes(&snap);
        m.insert(5_000, -1);
        assert_eq!(nodes(&m).difference(&shared).count(), height(&m));
        let snap2 = m.clone();
        let shared = nodes(&snap2);
        m.remove(&7_000);
        assert_eq!(nodes(&m).difference(&shared).count(), height(&m));
        // A miss copies nothing.
        let shared = nodes(&m);
        let mut m2 = m.clone();
        assert_eq!(m2.remove(&-5), None);
        assert!(!m2.update_or_remove(&20_000, |_| true));
        assert!(nodes(&m2).is_subset(&shared));
        // The snapshots still read their own versions.
        assert_eq!(snap.get(&5_000), Some(&5_000));
        assert_eq!(snap2.get(&7_000), Some(&7_000));
        assert_eq!(m.get(&5_000), Some(&-1));
    }

    #[test]
    fn ascending_inserts_fill_leaves() {
        let m: PMap<i64, ()> = (0..(MAX as i64 * 64)).map(|i| (i, ())).collect();
        let mut leaves = 0;
        let mut todo: Vec<&Node<i64, ()>> = m.root.as_deref().into_iter().collect();
        while let Some(n) = todo.pop() {
            match n {
                Node::Branch { kids, .. } => todo.extend(kids.iter().map(|k| &**k)),
                Node::Leaf(es) => {
                    assert_eq!(es.len(), MAX);
                    leaves += 1;
                }
            }
        }
        assert_eq!(leaves, 64);
    }
}
