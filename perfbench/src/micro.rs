//! Unit costs of single layer operations, timed from outside through the
//! layers' public functions: X25519, ChaCha20, HMAC-SHA-256, the onion
//! builders and peelers, and the erasure codec.

use anon_core::onion::{
    build_construction_onion, build_payload_onion_into, peel_payload_layer_in_place,
    wrap_reverse_layer_in_place,
};
use anon_core::MessageId;
use erasure::{Codec, ErasureCodec, Segment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_crypto::{KeyPair, PublicKey};
use simnet::NodeId;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each unit cost is measured for.
const BUDGET: Duration = Duration::from_millis(40);

/// Median microseconds per call of `f`, over batches of at least 1 ms
/// run for [`BUDGET`].
pub fn us_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(batch));
    }
    crate::report::median(&per_call)
}

/// MiB per second that `us_per_call` implies for `bytes` per call.
fn mib_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (us * 1e-6)
}

/// Unit costs at one workload's shape.
pub struct UnitCosts {
    pub x25519_us: f64,
    pub construct_onion_us: f64,
    pub payload_peel_us: f64,
    pub reverse_wrap_us: f64,
    pub chacha20_mib_s: f64,
    pub hmac_mib_s: f64,
    pub encode_us: f64,
    pub decode_us: f64,
}

/// The shape a workload's onions and messages take.
pub struct Shape {
    /// Hops of a path, responder included.
    pub hops: usize,
    /// Bytes of one segment carried by a payload onion.
    pub segment_bytes: usize,
    /// Erasure code `(m, n)` and the message length it encodes.
    pub code: (usize, usize),
    pub message_bytes: usize,
}

/// Measure every unit cost at `shape`, with inputs drawn from `seed`.
pub fn measure(shape: &Shape, seed: u64) -> UnitCosts {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let keys: Vec<KeyPair> = (0..shape.hops)
        .map(|_| KeyPair::generate(&mut rng))
        .collect();
    let hop_keys: Vec<(NodeId, PublicKey)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (NodeId(i as u32 + 1), k.public))
        .collect();

    let scalar: [u8; 32] = rng.gen();
    let point = keys[0].public.0;
    let x25519_us = us_per_call(|| {
        black_box(sim_crypto::x25519::x25519(black_box(&scalar), &point));
    });

    let construct_onion_us = us_per_call(|| {
        black_box(build_construction_onion(black_box(&hop_keys), &mut rng));
    });

    // One payload layer peeled at the first relay, from a full onion.
    let (plan, _) = build_construction_onion(&hop_keys, &mut rng);
    let segment = Segment::new(0, random_bytes(&mut rng, shape.segment_bytes));
    let mut onion = Vec::new();
    build_payload_onion_into(&plan, MessageId(7), &segment, &mut onion, &mut rng);
    let mut buf = Vec::with_capacity(onion.len());
    let first = plan.session_keys[0];
    let payload_peel_us = us_per_call(|| {
        buf.clear();
        buf.extend_from_slice(&onion);
        black_box(peel_payload_layer_in_place(&first, &mut buf).expect("own onion peels"));
    });

    let reverse = random_bytes(&mut rng, shape.segment_bytes);
    let reverse_wrap_us = us_per_call(|| {
        buf.clear();
        buf.extend_from_slice(&reverse);
        wrap_reverse_layer_in_place(&first, &mut buf, &mut rng);
        black_box(&buf);
    });

    let key: [u8; 32] = rng.gen();
    let nonce: [u8; 12] = rng.gen();
    let mut data = random_bytes(&mut rng, shape.segment_bytes.max(1));
    let chacha_us = us_per_call(|| {
        sim_crypto::chacha20::xor_stream(&key, 1, &nonce, black_box(&mut data));
    });
    let hmac_us = us_per_call(|| {
        black_box(sim_crypto::hmac::hmac_sha256(&key, black_box(&data)));
    });

    let codec = ErasureCodec::new(shape.code.0, shape.code.1).expect("valid code");
    let message = random_bytes(&mut rng, shape.message_bytes);
    let encode_us = us_per_call(|| {
        black_box(codec.encode(black_box(&message)));
    });
    // Decode from the last `m` segments, so a systematic code must
    // really reconstruct whenever n > m.
    let segments = codec.encode(&message);
    let survivors: Vec<Segment> = segments[segments.len() - shape.code.0..].to_vec();
    assert_eq!(codec.decode(&survivors).expect("decodes"), message);
    let decode_us = us_per_call(|| {
        black_box(codec.decode(black_box(&survivors)).expect("decodes"));
    });

    UnitCosts {
        x25519_us,
        construct_onion_us,
        payload_peel_us,
        reverse_wrap_us,
        chacha20_mib_s: mib_per_s(data.len(), chacha_us),
        hmac_mib_s: mib_per_s(data.len(), hmac_us),
        encode_us,
        decode_us,
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}
