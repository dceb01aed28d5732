//! Placement: assigning guests to servers and compute boards.
//!
//! §3.2's use scenario: "The cloud infrastructure selects an available
//! bare-metal server and picks an idle compute board and powers it on."
//! The scheduler below does that selection over a pool of BM-Hive
//! servers, first-fit with per-server constraint checking, and releases
//! boards when guests terminate.

use crate::catalog::{InstanceType, ServerConstraints};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A server identifier in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// A board slot assignment: which server, which board index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// The chosen server.
    pub server: ServerId,
    /// Board index on that server.
    pub board: u32,
}

/// Placement failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// No server in the pool has room for this instance type.
    NoCapacity,
    /// Releasing a board that was never allocated.
    UnknownPlacement,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoCapacity => write!(f, "no server has capacity for the instance"),
            PlacementError::UnknownPlacement => write!(f, "placement was not allocated"),
        }
    }
}

impl Error for PlacementError {}

#[derive(Debug)]
struct ServerState {
    constraints: ServerConstraints,
    /// Installed boards by board index.
    boards: HashMap<u32, InstanceType>,
    next_board: u32,
}

/// First-fit scheduler over a pool of BM-Hive servers.
#[derive(Debug, Default)]
pub struct Scheduler {
    servers: HashMap<ServerId, ServerState>,
    next_server: u32,
}

impl Scheduler {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a server with the given constraints, returning its id.
    pub fn add_server(&mut self, constraints: ServerConstraints) -> ServerId {
        let id = ServerId(self.next_server);
        self.next_server += 1;
        self.servers.insert(
            id,
            ServerState {
                constraints,
                boards: HashMap::new(),
                next_board: 0,
            },
        );
        id
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.servers.len()
    }

    /// Places one instance, first-fit in server-id order.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoCapacity`] when no server fits the instance.
    pub fn place(&mut self, instance: &InstanceType) -> Result<Placement, PlacementError> {
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let state = self.servers.get_mut(&id).expect("known id");
            if state
                .constraints
                .admit(state.boards.values(), instance)
                .is_ok()
            {
                let board = state.next_board;
                state.next_board += 1;
                state.boards.insert(board, *instance);
                return Ok(Placement { server: id, board });
            }
        }
        Err(PlacementError::NoCapacity)
    }

    /// Releases a placed board (guest terminated).
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownPlacement`] if the board was not
    /// allocated.
    pub fn release(&mut self, placement: Placement) -> Result<(), PlacementError> {
        let server = self
            .servers
            .get_mut(&placement.server)
            .ok_or(PlacementError::UnknownPlacement)?;
        server
            .boards
            .remove(&placement.board)
            .map(|_| ())
            .ok_or(PlacementError::UnknownPlacement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::INSTANCE_CATALOG;

    fn e5() -> &'static InstanceType {
        &INSTANCE_CATALOG[0]
    }

    #[test]
    fn fills_one_server_to_its_board_limit() {
        let mut sched = Scheduler::new();
        let constraints = ServerConstraints::production();
        let server = sched.add_server(constraints);
        let expected = constraints.max_boards(e5());
        let mut placed = 0;
        while let Ok(placement) = sched.place(e5()) {
            assert_eq!(placement.server, server);
            placed += 1;
            assert!(placed <= expected, "overfilled past {expected}");
        }
        assert_eq!(placed, expected);
    }

    #[test]
    fn spills_to_the_next_server() {
        let mut sched = Scheduler::new();
        let s1 = sched.add_server(ServerConstraints::production());
        let s2 = sched.add_server(ServerConstraints::production());
        let cap = ServerConstraints::production().max_boards(e5());
        for _ in 0..cap {
            assert_eq!(sched.place(e5()).unwrap().server, s1);
        }
        assert_eq!(sched.place(e5()).unwrap().server, s2);
    }

    #[test]
    fn release_frees_capacity() {
        let mut sched = Scheduler::new();
        sched.add_server(ServerConstraints::production());
        let cap = ServerConstraints::production().max_boards(e5());
        let mut placements = Vec::new();
        for _ in 0..cap {
            placements.push(sched.place(e5()).unwrap());
        }
        assert_eq!(sched.place(e5()), Err(PlacementError::NoCapacity));
        sched.release(placements.pop().unwrap()).unwrap();
        assert!(sched.place(e5()).is_ok());
    }

    #[test]
    fn double_release_is_an_error() {
        let mut sched = Scheduler::new();
        sched.add_server(ServerConstraints::production());
        let p = sched.place(e5()).unwrap();
        sched.release(p).unwrap();
        assert_eq!(sched.release(p), Err(PlacementError::UnknownPlacement));
    }

    #[test]
    fn mixed_instance_types_share_a_server() {
        let mut sched = Scheduler::new();
        sched.add_server(ServerConstraints::production());
        // 4 double-wide E5 boards (8 slots, 640 W) + 8 single-wide E3
        // boards (8 slots, 736 W) = 16 slots, 1376 W: fits exactly.
        for _ in 0..4 {
            sched.place(&INSTANCE_CATALOG[0]).unwrap();
        }
        for _ in 0..8 {
            sched.place(&INSTANCE_CATALOG[1]).unwrap();
        }
        // One more of anything exceeds the slot budget.
        assert!(sched.place(&INSTANCE_CATALOG[1]).is_err());
    }

    #[test]
    fn empty_pool_has_no_capacity() {
        let mut sched = Scheduler::new();
        assert_eq!(sched.place(e5()), Err(PlacementError::NoCapacity));
        assert_eq!(sched.servers(), 0);
    }
}
