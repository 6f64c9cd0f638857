//! # Sealed Bottle
//!
//! A complete Rust implementation of *"Message in a Sealed Bottle:
//! Privacy Preserving Friending in Social Networks"* (Zhang & Li,
//! ICDCS 2013): one-round privacy-preserving profile matching and secure
//! channel establishment for decentralized mobile social networks, built
//! from symmetric cryptography only — no PKI, no trusted third party, no
//! presetting.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`crypto`] | `msb-crypto` | SHA-256, AES-128/256, CTR/CBC, HMAC, HKDF |
//! | [`bignum`] | `msb-bignum` | big integers, Montgomery modexp, prime fields |
//! | [`profile`] | `msb-profile` | attributes, profile vectors/keys, remainder vectors, hint matrices, entropy |
//! | [`lattice`] | `msb-lattice` | hexagonal location hashing, vicinity regions |
//! | [`net`] | `msb-net` | deterministic MANET simulator |
//! | [`core`] | `msb-core` | Protocols 1/2/3, secure channels, vicinity search, adversaries |
//! | [`baselines`] | `msb-baselines` | Paillier, FNP'04, FC'10, FindU-style PSI-CA, dot product |
//! | [`dataset`] | `msb-dataset` | synthetic Tencent-Weibo population |
//! | [`wire`] | `msb-wire` | the canonical versioned frame codec every message uses |
//! | [`server`] | `msb-server` | the TCP relay: MSBW gateway, store-and-forward inbox, rate guard |
//!
//! # Quickstart
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sealed_bottle::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let config = ProtocolConfig::new(ProtocolKind::P1, 11);
//!
//! // Looking for a jazz-loving engineer.
//! let request = RequestProfile::new(
//!     vec![Attribute::new("profession", "engineer")],
//!     vec![Attribute::new("interest", "jazz"), Attribute::new("interest", "go")],
//!     1,
//! )?;
//! let (mut initiator, package) = Initiator::create(&request, 0, &config, 0, &mut rng);
//!
//! let responder = Responder::new(
//!     1,
//!     Profile::from_attributes(vec![
//!         Attribute::new("profession", "engineer"),
//!         Attribute::new("interest", "jazz"),
//!     ]),
//!     &config,
//! );
//! if let ResponderOutcome::Reply { reply, sessions, .. } =
//!     responder.handle(&package, 1_000, &mut rng)
//! {
//!     let matches = initiator.process_reply(&reply, 2_000);
//!     // Both sides now share (x, y): a secure channel exists.
//!     let mut a = initiator.pair_channel(&matches[0]);
//!     let mut b = sessions[0].channel();
//!     let frame = a.seal(b"hello!");
//!     assert_eq!(b.open(&frame).unwrap(), b"hello!");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use msb_baselines as baselines;
pub use msb_bignum as bignum;
pub use msb_core as core;
pub use msb_crypto as crypto;
pub use msb_dataset as dataset;
pub use msb_lattice as lattice;
pub use msb_net as net;
pub use msb_profile as profile;
pub use msb_server as server;
pub use msb_telemetry as telemetry;
pub use msb_wire as wire;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use msb_core::app::{AppEvent, FriendingApp, RefloodPolicy, SwarmSummary};
    pub use msb_core::channel::{GroupChannel, Role, SecureChannel};
    pub use msb_core::package::{Reply, RequestPackage};
    pub use msb_core::protocol::{
        ConfirmedMatch, Initiator, Parallelism, ProtocolConfig, ProtocolKind, Responder,
        ResponderOutcome,
    };
    pub use msb_core::vicinity::{create_vicinity_request, vicinity_responder};
    pub use msb_lattice::{LatticeConfig, VicinityRegion};
    pub use msb_net::payload::Payload;
    pub use msb_net::shard::ShardedSimulator;
    pub use msb_net::sim::{
        DeliveryMode, NodeApp, NodeCtx, NodeId, SchedulerMode, SimConfig, SimDriver, Simulator,
    };
    pub use msb_net::spatial::SpatialIndex;
    pub use msb_profile::{
        Attribute, Profile, ProfileKey, ProfileVector, RequestProfile, RequestVector,
    };
    pub use msb_server::{RelayClient, RelayServer, ServerConfig};
    pub use msb_wire::{DecodeError, FrameKind, Message, WireDecode, WireEncode};
}
