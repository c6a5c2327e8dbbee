//! Queues of block numbers linked through the values of a map keyed by
//! block number: the BSD `TAILQ` idiom in safe code.  Each queued value
//! carries its own [`Link`] (the `TAILQ_ENTRY`), and a [`Queue`] holds
//! only the head, the tail and the length, so appending, unlinking and
//! taking the head are O(1) map operations.

use std::collections::HashMap;

/// A queued value's neighbours, by block number.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Link {
    prev: Option<u32>,
    next: Option<u32>,
}

impl Link {
    /// The next block toward the tail of the queue.
    pub(crate) fn next(&self) -> Option<u32> {
        self.next
    }
}

/// A map value that can sit on a [`Queue`].
pub(crate) trait Linked {
    fn link(&mut self) -> &mut Link;
}

impl Linked for Link {
    fn link(&mut self) -> &mut Link {
        self
    }
}

/// The head of one queue: oldest at the head, newest at the tail.
#[derive(Debug, Default)]
pub(crate) struct Queue {
    head: Option<u32>,
    tail: Option<u32>,
    len: usize,
}

fn link<T: Linked>(map: &mut HashMap<u32, T>, k: u32) -> &mut Link {
    map.get_mut(&k).expect("queued block is in its map").link()
}

impl Queue {
    /// Number of queued blocks.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The oldest block, if any.
    pub(crate) fn head(&self) -> Option<u32> {
        self.head
    }

    /// Appends `k`, which is in `map` and on no queue, at the tail.
    pub(crate) fn push_back<T: Linked>(&mut self, map: &mut HashMap<u32, T>, k: u32) {
        let tail = self.tail.replace(k);
        *link(map, k) = Link {
            prev: tail,
            next: None,
        };
        match tail {
            Some(t) => link(map, t).next = Some(k),
            None => self.head = Some(k),
        }
        self.len += 1;
    }

    /// Unlinks `k`, which is on this queue; its value stays in `map`.
    pub(crate) fn remove<T: Linked>(&mut self, map: &mut HashMap<u32, T>, k: u32) {
        let Link { prev, next } = std::mem::take(link(map, k));
        match prev {
            Some(p) => link(map, p).next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => link(map, n).prev = prev,
            None => self.tail = prev,
        }
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue's blocks, head to tail.
    fn order(q: &Queue, map: &HashMap<u32, Link>) -> Vec<u32> {
        std::iter::successors(q.head(), |k| map[k].next()).collect()
    }

    #[test]
    fn push_remove_and_walk() {
        let mut map: HashMap<u32, Link> = (0..5).map(|k| (k, Link::default())).collect();
        let mut q = Queue::default();
        for k in 0..5 {
            q.push_back(&mut map, k);
        }
        assert_eq!(order(&q, &map), [0, 1, 2, 3, 4]);
        q.remove(&mut map, 0);
        q.remove(&mut map, 2);
        q.remove(&mut map, 4);
        assert_eq!(order(&q, &map), [1, 3]);
        assert_eq!(q.len(), 2);
        q.push_back(&mut map, 0);
        q.remove(&mut map, 1);
        assert_eq!(order(&q, &map), [3, 0]);
        q.remove(&mut map, 3);
        q.remove(&mut map, 0);
        assert_eq!((q.head(), q.tail, q.len()), (None, None, 0));
    }
}
