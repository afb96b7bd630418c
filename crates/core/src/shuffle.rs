//! Lane shuffling for inter-warp DMR copies (paper §3.2).
//!
//! A fully-utilized warp's DMR copy re-executes on the *same* 32 lanes a
//! few cycles later. With naive core affinity, thread `i`'s copy runs on
//! lane `i` again — a stuck-at fault corrupts both runs identically and
//! hides. Shuffling rotates each thread's verification onto the next lane
//! *within its SIMT cluster* (wiring stays cluster-local, §3.2).

/// Physical lane on which the DMR copy of the work originally executed on
/// `lane` runs.
///
/// With `shuffle` the copy moves to the next lane of the same cluster
/// (a cluster-local rotation, guaranteed ≠ `lane` for `cluster_size > 1`);
/// without it, core affinity re-uses the same lane.
pub const fn verify_lane(lane: usize, cluster_size: usize, shuffle: bool) -> usize {
    if !shuffle || cluster_size <= 1 {
        return lane;
    }
    let cluster = lane / cluster_size;
    let slot = lane % cluster_size;
    cluster * cluster_size + (slot + 1) % cluster_size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_never_reuses_the_lane() {
        for lane in 0..32 {
            let v = verify_lane(lane, 4, true);
            assert_ne!(v, lane);
        }
    }

    #[test]
    fn shuffle_stays_within_the_cluster() {
        for lane in 0..32 {
            let v = verify_lane(lane, 4, true);
            assert_eq!(v / 4, lane / 4, "lane {lane} escaped its cluster");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut seen = [false; 32];
        for lane in 0..32 {
            let v = verify_lane(lane, 4, true);
            assert!(!seen[v]);
            seen[v] = true;
        }
    }

    #[test]
    fn no_shuffle_is_identity() {
        for lane in 0..32 {
            assert_eq!(verify_lane(lane, 4, false), lane);
        }
    }

    #[test]
    fn degenerate_cluster_of_one_cannot_move() {
        assert_eq!(verify_lane(5, 1, true), 5);
    }
}
