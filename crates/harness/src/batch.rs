//! The scoped worker pool behind the suite sweep: [`shard_map`] fans
//! items across `std::thread::scope` workers over a shared index queue,
//! with no external thread-pool crate.

use std::sync::Mutex;

/// Applies `body` to every item on a scoped worker pool and returns the
/// results in input order.
///
/// `threads == 0` means one worker per available core; the worker count
/// is always clamped to `1..=items.len()`. The result order is
/// independent of scheduling: workers record `(index, result)` pairs and
/// the collected vector is sorted by index before returning. `body`
/// receives the item's index alongside the item so callers can label
/// work without pre-zipping.
pub fn shard_map<T, R, F>(items: &[T], threads: usize, body: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .clamp(1, items.len().max(1));

    let next: Mutex<usize> = Mutex::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = {
                    let mut next = next.lock().expect("queue lock");
                    let index = *next;
                    *next += 1;
                    index
                };
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = body(index, item);
                collected.lock().expect("result lock").push((index, result));
            });
        }
    });
    let mut collected = collected.into_inner().expect("result lock");
    collected.sort_by_key(|(index, _)| *index);
    collected.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [0, 1, 3, 16] {
            let squares = shard_map(&items, threads, |index, item| {
                assert_eq!(index, *item);
                item * item
            });
            assert_eq!(squares.len(), items.len());
            for (index, square) in squares.iter().enumerate() {
                assert_eq!(*square, index * index);
            }
        }
    }

    #[test]
    fn shard_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(shard_map(&empty, 8, |_, item| *item).is_empty());
        assert_eq!(shard_map(&[7u8], 0, |_, item| *item), vec![7]);
    }
}
