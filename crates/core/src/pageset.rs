//! A compact ordered set of 4 KiB-aligned page addresses.

use std::collections::BTreeMap;

/// Sub-pages per 2 MiB chunk, and the words of one chunk's bitmap.
const SUBPAGES: u64 = 512;
const WORDS: usize = (SUBPAGES / 64) as usize;

/// An ordered set of page addresses, kept as one 512-bit map per 2 MiB
/// chunk. Carrefour-LP marks all 512 sub-pages of every page it splits
/// as interleaved; a `BTreeSet<u64>` holds those at about 20 bytes each,
/// this at one bit. Iteration is in ascending address order, as the
/// `BTreeSet`'s was, so anything serialized from it is unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct PageSet {
    chunks: BTreeMap<u64, [u64; WORDS]>,
    len: usize,
}

/// The chunk key, word index and bit mask of `page`.
fn locate(page: u64) -> (u64, usize, u64) {
    assert_eq!(page % 4096, 0, "page {page:#x} is not 4 KiB aligned");
    let sub = (page >> 12) % SUBPAGES;
    (page >> 21, (sub / 64) as usize, 1 << (sub % 64))
}

impl PageSet {
    /// Whether `page` is in the set.
    pub(crate) fn contains(&self, page: u64) -> bool {
        let (chunk, word, bit) = locate(page);
        self.chunks.get(&chunk).is_some_and(|m| m[word] & bit != 0)
    }

    /// Adds `page`; `false` if it was already present.
    pub(crate) fn insert(&mut self, page: u64) -> bool {
        let (chunk, word, bit) = locate(page);
        let map = self.chunks.entry(chunk).or_insert([0; WORDS]);
        let fresh = map[word] & bit == 0;
        map[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `page`; `false` if it was absent.
    pub(crate) fn remove(&mut self, page: u64) -> bool {
        let (chunk, word, bit) = locate(page);
        let Some(map) = self.chunks.get_mut(&chunk) else {
            return false;
        };
        let present = map[word] & bit != 0;
        map[word] &= !bit;
        if map.iter().all(|&w| w == 0) {
            self.chunks.remove(&chunk);
        }
        self.len -= usize::from(present);
        present
    }

    /// The pages in ascending order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let pages = self.chunks.iter().flat_map(|(&chunk, map)| {
            map.iter().enumerate().flat_map(move |(w, &bits)| {
                (0..64u64)
                    .filter(move |b| bits >> b & 1 != 0)
                    .map(move |b| (chunk << 21) | ((w as u64 * 64 + b) << 12))
            })
        });
        ExactLen {
            inner: pages,
            left: self.len,
        }
    }
}

impl FromIterator<u64> for PageSet {
    fn from_iter<I: IntoIterator<Item = u64>>(pages: I) -> Self {
        let mut set = PageSet::default();
        for p in pages {
            set.insert(p);
        }
        set
    }
}

/// An iterator with its length known up front.
struct ExactLen<I> {
    inner: I,
    left: usize,
}

impl<I: Iterator<Item = u64>> Iterator for ExactLen<I> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let p = self.inner.next()?;
        self.left -= 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator<Item = u64>> ExactSizeIterator for ExactLen<I> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn matches_btreeset_oracle() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut set = PageSet::default();
        let mut oracle = BTreeSet::new();
        for step in 0..20_000 {
            // A few chunks, some at high addresses, so both dense runs
            // and emptied chunks occur.
            let chunk = [0u64, 1, 2, 5, 1 << 20, (1 << 35) + 3][rng.random_range(0..6usize)];
            let page = (chunk << 21) | (rng.random_range(0..SUBPAGES) << 12);
            match rng.random_range(0..3u32) {
                0 => assert_eq!(set.insert(page), oracle.insert(page)),
                1 => assert_eq!(set.remove(page), oracle.remove(&page)),
                _ => assert_eq!(set.contains(page), oracle.contains(&page)),
            }
            if step % 997 == 0 {
                let got: Vec<u64> = set.iter().collect();
                assert_eq!(set.iter().len(), oracle.len());
                assert_eq!(got, oracle.iter().copied().collect::<Vec<_>>());
                assert_eq!(set, got.into_iter().collect::<PageSet>());
            }
        }
        assert!(set.chunks.values().all(|m| m.iter().any(|&w| w != 0)));
    }

    #[test]
    #[should_panic(expected = "not 4 KiB aligned")]
    fn unaligned_page_is_refused() {
        PageSet::default().insert(4097);
    }
}
