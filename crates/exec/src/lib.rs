//! Deterministic chunked fan-out for the city's shard phase.
//!
//! A city tick advances every shard independently: for each shard, one
//! whole intersection tick. [`fan_out_mut_with_cutoff`] runs such an
//! element-wise map over contiguous chunks of the shard list on worker
//! threads and concatenates the chunk results in chunk order — which is
//! the original iteration order — so the output is **bit-identical** to
//! the serial loop. The closure must be element-wise, i.e.
//! `f(a ++ b) == f(a) ++ f(b)`; under that contract the thread count is
//! unobservable.

/// The host's available parallelism (never 0).
pub fn host_threads() -> usize {
    rayon::current_num_threads().max(1)
}

/// Runs an element-wise map over disjoint mutable chunks of `items`,
/// concatenating the chunk results in order. Runs inline when
/// `threads <= 1` or `items` has fewer than `cutoff` elements.
pub fn fan_out_mut_with_cutoff<T, R, F>(
    items: &mut [T],
    threads: usize,
    cutoff: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut [T]) -> Vec<R> + Sync,
{
    if threads <= 1 || items.len() < cutoff {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads).max(1);
    let pieces: Vec<&mut [T]> = items.chunks_mut(chunk).collect();
    let mut parts: Vec<Vec<R>> = Vec::new();
    parts.resize_with(pieces.len(), Vec::new);
    rayon::scope(|s| {
        for (slot, piece) in parts.iter_mut().zip(pieces) {
            let f = &f;
            s.spawn(move || *slot = f(piece));
        }
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_threads_is_positive() {
        assert!(host_threads() >= 1);
    }

    #[test]
    fn fan_out_matches_serial_at_any_cutoff() {
        for n in [0usize, 1, 2, 7, 16, 999] {
            for threads in [1usize, 2, 5, 8] {
                for cutoff in [1usize, 2, 64] {
                    let mut items: Vec<u64> = (0..n as u64).collect();
                    let mut expected = items.clone();
                    let serial: Vec<u64> = expected
                        .iter_mut()
                        .map(|x| {
                            *x = *x * 2 + 1;
                            *x
                        })
                        .collect();
                    let out = fan_out_mut_with_cutoff(&mut items, threads, cutoff, |chunk| {
                        chunk
                            .iter_mut()
                            .map(|x| {
                                *x = *x * 2 + 1;
                                *x
                            })
                            .collect()
                    });
                    assert_eq!(items, expected, "n={n} threads={threads} cutoff={cutoff}");
                    assert_eq!(out, serial);
                }
            }
        }
    }
}
