//! The store-and-forward inbox: per-recipient queues of TTL-stamped
//! sealed bottles.
//!
//! This is what lets a bottle outlive radio contact (and, here, TCP
//! contact): a deposit parks the frame under the recipient's id; the
//! recipient drains it on a later fetch. Entries expire after the
//! configured TTL — the serverside mirror of the paper's request
//! validity period — and the [`worker`](crate::worker) purges them on
//! an interval, so the repo tracks *live* bottles, not all bottles
//! ever.
//!
//! All times are microseconds on the server's monotonic clock
//! (supplied by the caller; storage never reads a clock itself, which
//! keeps every policy here unit-testable at exact instants).

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

/// One parked bottle.
#[derive(Debug, Clone)]
pub struct StoredMessage {
    /// The depositing client.
    pub from: u32,
    /// The carried frame, exactly as deposited.
    pub frame: Bytes,
    /// The instant this entry stops being fetchable.
    pub expires_at_us: u64,
}

/// Per-recipient message repository. Doubles as the client registry:
/// only registered ([`Hello`](crate::proto::Hello)-ed) ids can deposit
/// or fetch, and the registry is the fan-out population for
/// [`BROADCAST`](crate::proto::BROADCAST) deposits.
#[derive(Debug)]
pub struct Inbox {
    ttl_us: u64,
    max_per_recipient: usize,
    /// Registered client ids in registration order — the broadcast
    /// fan-out walks this, so delivery order across recipients is
    /// deterministic.
    registered: Vec<u32>,
    queues: HashMap<u32, VecDeque<StoredMessage>>,
}

impl Inbox {
    /// Creates an empty inbox with the given TTL and per-recipient cap.
    pub fn new(ttl_us: u64, max_per_recipient: usize) -> Self {
        Inbox { ttl_us, max_per_recipient, registered: Vec::new(), queues: HashMap::new() }
    }

    /// Registers a client id (idempotent).
    pub fn register(&mut self, client: u32) {
        if !self.registered.contains(&client) {
            self.registered.push(client);
            self.queues.entry(client).or_default();
        }
    }

    /// Whether `client` has registered.
    pub fn is_registered(&self, client: u32) -> bool {
        self.registered.contains(&client)
    }

    /// Registered ids, in registration order.
    pub fn registered(&self) -> &[u32] {
        &self.registered
    }

    /// Parks a bottle for `to`. Returns `false` (dropping the bottle)
    /// when the recipient is unknown or their queue is at the cap —
    /// the deposit-side backpressure that keeps one slow reader from
    /// growing the repo without bound.
    pub fn push(&mut self, to: u32, from: u32, frame: Bytes, now_us: u64) -> bool {
        let Some(queue) = self.queues.get_mut(&to) else {
            return false;
        };
        if queue.len() >= self.max_per_recipient {
            return false;
        }
        queue.push_back(StoredMessage { from, frame, expires_at_us: now_us + self.ttl_us });
        true
    }

    /// Drains up to `max` live bottles for `client` (0 = no limit),
    /// oldest first, and returns them with the number of expired
    /// entries dropped on the way — a fetch never delivers a dead
    /// bottle. The caller counts the dropped ones: the cleanup worker's
    /// purge never sees them.
    pub fn drain(&mut self, client: u32, max: usize, now_us: u64) -> (Vec<StoredMessage>, usize) {
        let Some(queue) = self.queues.get_mut(&client) else {
            return (Vec::new(), 0);
        };
        let cap = if max == 0 { usize::MAX } else { max };
        let mut out = Vec::new();
        let mut expired = 0;
        while out.len() < cap {
            let Some(msg) = queue.pop_front() else {
                break;
            };
            if msg.expires_at_us > now_us {
                out.push(msg);
            } else {
                expired += 1;
            }
        }
        (out, expired)
    }

    /// Returns a drained bottle to the *front* of `client`'s queue —
    /// used by the services layer when a fetch reply's byte budget
    /// fills before the queue empties, so the undelivered remainder
    /// keeps its order for the next fetch.
    pub fn requeue_front(&mut self, client: u32, msg: StoredMessage) {
        self.queues.entry(client).or_default().push_front(msg);
    }

    /// Drops every expired bottle; returns how many died.
    pub fn purge_expired(&mut self, now_us: u64) -> usize {
        let mut purged = 0;
        for queue in self.queues.values_mut() {
            let before = queue.len();
            queue.retain(|m| m.expires_at_us > now_us);
            purged += before - queue.len();
        }
        purged
    }

    /// Bottles currently parked across all recipients.
    pub fn depth(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 4])
    }

    #[test]
    fn deposit_fetch_roundtrip_in_order() {
        let mut inbox = Inbox::new(1_000, 16);
        inbox.register(7);
        assert!(inbox.push(7, 1, frame(0xA), 0));
        assert!(inbox.push(7, 2, frame(0xB), 10));
        let (got, expired) = inbox.drain(7, 0, 20);
        assert_eq!(got.iter().map(|m| m.from).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(expired, 0);
        assert_eq!(inbox.depth(), 0);
    }

    #[test]
    fn unknown_recipient_and_full_queue_rejected() {
        let mut inbox = Inbox::new(1_000, 2);
        assert!(!inbox.push(9, 1, frame(1), 0), "unregistered recipient");
        inbox.register(9);
        assert!(inbox.push(9, 1, frame(1), 0));
        assert!(inbox.push(9, 1, frame(2), 0));
        assert!(!inbox.push(9, 1, frame(3), 0), "queue at cap");
        assert_eq!(inbox.depth(), 2);
    }

    #[test]
    fn ttl_expiry_via_drain_and_purge() {
        let mut inbox = Inbox::new(100, 16);
        inbox.register(1);
        inbox.register(2);
        inbox.push(1, 0, frame(1), 0); // expires at 100
        inbox.push(2, 0, frame(2), 50); // expires at 150

        // Drain never hands out a dead bottle, and reports the one it
        // dropped.
        let (live, expired) = inbox.drain(1, 0, 100);
        assert!(live.is_empty(), "expires_at == now is dead");
        assert_eq!(expired, 1);

        assert_eq!(inbox.purge_expired(120), 0); // client 1's already drained
        assert_eq!(inbox.depth(), 1);
        assert_eq!(inbox.purge_expired(150), 1);
        assert_eq!(inbox.depth(), 0);
    }

    #[test]
    fn registry_is_idempotent_and_ordered() {
        let mut inbox = Inbox::new(1, 1);
        inbox.register(5);
        inbox.register(3);
        inbox.register(5);
        assert_eq!(inbox.registered(), &[5, 3]);
        assert!(inbox.is_registered(3));
        assert!(!inbox.is_registered(4));
    }
}
