//! Golden wire-format tests: every DKNP frame type encoded against
//! hand-written byte vectors, each pinned to the exact section of
//! docs/PROTOCOL.md that specifies it. If any of these fail, either the
//! codec or the document changed — and a byte-layout change is a protocol
//! version bump (PROTOCOL.md §2.2), not a patch.

use dkindex_server::protocol::{
    check_length, decode_body, encode, DecodeError, MAX_ANSWER_IDS, MAX_FRAME, VERSION,
};
use dkindex_server::{ErrorCode, Frame, ShedReason};
use std::collections::BTreeSet;

/// Encode, compare against the golden bytes, then decode the body back
/// and require the identical frame (PROTOCOL.md §1: frames are
/// `u32 LE length | u8 opcode | payload`).
fn golden(frame: Frame, expected: &[u8]) {
    let bytes = encode(&frame);
    assert_eq!(bytes, expected, "encoding of {frame:?}");
    let (header, body) = expected.split_at(4);
    let length = u32::from_le_bytes(header.try_into().unwrap());
    assert_eq!(length as usize, body.len(), "length counts opcode + payload");
    assert_eq!(check_length(length).unwrap(), body.len());
    assert_eq!(decode_body(body).unwrap(), frame, "decode round-trip");
}

/// PROTOCOL.md §2.1 — HELLO is opcode 0x01: magic "DKNP" then version
/// u16 LE.
#[test]
fn hello_golden_bytes_protocol_2_1() {
    golden(
        Frame::Hello { version: VERSION },
        &[
            7, 0, 0, 0, // length = opcode + 6 payload bytes
            0x01, // opcode HELLO
            0x44, 0x4B, 0x4E, 0x50, // magic "DKNP"
            0x01, 0x00, // version 1, little-endian
        ],
    );
}

/// PROTOCOL.md §2.1 — WELCOME is opcode 0x02: version u16 LE then the
/// current epoch u64 LE.
#[test]
fn welcome_golden_bytes_protocol_2_1() {
    golden(
        Frame::Welcome {
            version: 1,
            epoch: 0x0102030405060708,
        },
        &[
            11, 0, 0, 0, // length
            0x02, // opcode WELCOME
            0x01, 0x00, // version
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // epoch LE
        ],
    );
}

/// PROTOCOL.md §3.1 — QUERY is opcode 0x10: budget u32 LE (0 = server
/// default) then UTF-8 query text to the end of the frame.
#[test]
fn query_golden_bytes_protocol_3_1() {
    golden(
        Frame::Query {
            budget: 500,
            text: "l1.l2".to_string(),
        },
        &[
            10, 0, 0, 0, // length
            0x10, // opcode QUERY
            0xF4, 0x01, 0x00, 0x00, // budget 500 LE
            b'l', b'1', b'.', b'l', b'2', // query text
        ],
    );
}

/// PROTOCOL.md §3.2 — UPDATE is opcode 0x11: from u64 LE then to u64 LE.
#[test]
fn update_golden_bytes_protocol_3_2() {
    golden(
        Frame::Update { from: 3, to: 260 },
        &[
            17, 0, 0, 0, // length
            0x11, // opcode UPDATE
            3, 0, 0, 0, 0, 0, 0, 0, // from
            4, 1, 0, 0, 0, 0, 0, 0, // to = 260 LE
        ],
    );
}

/// PROTOCOL.md §3.3 — PING is opcode 0x12 with an empty payload: the
/// smallest legal frame, length 1 (§1).
#[test]
fn ping_golden_bytes_protocol_3_3() {
    golden(Frame::Ping, &[1, 0, 0, 0, 0x12]);
}

/// PROTOCOL.md §3.4 — STATS is opcode 0x13 with an empty payload.
#[test]
fn stats_golden_bytes_protocol_3_4() {
    golden(Frame::Stats, &[1, 0, 0, 0, 0x13]);
}

/// PROTOCOL.md §4.1 — ANSWER is opcode 0x20: epoch, index_visits,
/// data_visits (u64 LE each), validated u8, match_count u32 LE, then
/// min(match_count, 32) node ids u64 LE.
#[test]
fn answer_golden_bytes_protocol_4_1() {
    golden(
        Frame::Answer {
            epoch: 2,
            index_visits: 10,
            data_visits: 4,
            validated: true,
            match_count: 2,
            ids: vec![7, 9],
        },
        &[
            46, 0, 0, 0, // length = 1 + 8 + 8 + 8 + 1 + 4 + 2*8
            0x20, // opcode ANSWER
            2, 0, 0, 0, 0, 0, 0, 0, // epoch
            10, 0, 0, 0, 0, 0, 0, 0, // index_visits
            4, 0, 0, 0, 0, 0, 0, 0, // data_visits
            1, // validated
            2, 0, 0, 0, // match_count
            7, 0, 0, 0, 0, 0, 0, 0, // id 7
            9, 0, 0, 0, 0, 0, 0, 0, // id 9
        ],
    );
}

/// PROTOCOL.md §4.1 — the id list is capped at 32 entries while
/// match_count reports the true total: an answer with 40 matches carries
/// exactly 32 ids and decodes back with match_count 40.
#[test]
fn answer_id_cap_protocol_4_1() {
    let ids: Vec<u64> = (0..40).collect();
    let frame = Frame::Answer {
        epoch: 1,
        index_visits: 1,
        data_visits: 0,
        validated: false,
        match_count: 40,
        ids,
    };
    let bytes = encode(&frame);
    // length = 1 opcode + 29 fixed + 32 * 8 ids
    assert_eq!(bytes.len(), 4 + 1 + 29 + MAX_ANSWER_IDS * 8);
    let decoded = decode_body(&bytes[4..]).unwrap();
    match decoded {
        Frame::Answer {
            match_count, ids, ..
        } => {
            assert_eq!(match_count, 40);
            assert_eq!(ids, (0..32).collect::<Vec<u64>>());
        }
        other => panic!("decoded {other:?}"),
    }
}

/// PROTOCOL.md §4.2 — UPDATE_OK is opcode 0x21: pending u32 LE, the
/// backlog including the admitted op.
#[test]
fn update_ok_golden_bytes_protocol_4_2() {
    golden(
        Frame::UpdateOk { pending: 3 },
        &[5, 0, 0, 0, 0x21, 3, 0, 0, 0],
    );
}

/// PROTOCOL.md §4.3 — PONG is opcode 0x22: the current epoch u64 LE.
#[test]
fn pong_golden_bytes_protocol_4_3() {
    golden(
        Frame::Pong { epoch: 6 },
        &[9, 0, 0, 0, 0x22, 6, 0, 0, 0, 0, 0, 0, 0],
    );
}

/// PROTOCOL.md §4.4 — STATS_OK is opcode 0x23: UTF-8 `key=value` lines,
/// informational only.
#[test]
fn stats_ok_golden_bytes_protocol_4_4() {
    golden(
        Frame::StatsOk {
            text: "epoch=1\n".to_string(),
        },
        &[
            9, 0, 0, 0, 0x23, b'e', b'p', b'o', b'c', b'h', b'=', b'1', b'\n',
        ],
    );
}

/// PROTOCOL.md §5.1 — SHED is opcode 0x2E: reason u8 (1 queue-full,
/// 2 maintenance-lag, 3 draining), pending u32 LE, retry_after_ms u32 LE.
#[test]
fn shed_golden_bytes_protocol_5_1() {
    golden(
        Frame::Shed {
            reason: ShedReason::MaintenanceLag,
            pending: 7,
            retry_after_ms: 50,
        },
        &[
            10, 0, 0, 0, // length
            0x2E, // opcode SHED
            2, // reason maintenance-lag
            7, 0, 0, 0, // pending
            50, 0, 0, 0, // retry_after_ms
        ],
    );
    // All three reason bytes from the §5.1 table round-trip.
    for (reason, byte) in [
        (ShedReason::QueueFull, 1u8),
        (ShedReason::MaintenanceLag, 2),
        (ShedReason::Draining, 3),
    ] {
        assert_eq!(reason.code(), byte);
    }
}

/// PROTOCOL.md §6 — ERROR is opcode 0x2F: code u8 then UTF-8 message.
/// Every code byte matches the §6 table.
#[test]
fn error_golden_bytes_protocol_6() {
    golden(
        Frame::Error {
            code: ErrorCode::BadQuery,
            message: "boom".to_string(),
        },
        &[6, 0, 0, 0, 0x2F, 3, b'b', b'o', b'o', b'm'],
    );
    for (code, byte) in [
        (ErrorCode::Malformed, 1u8),
        (ErrorCode::UnsupportedVersion, 2),
        (ErrorCode::BadQuery, 3),
        (ErrorCode::BudgetExhausted, 4),
        (ErrorCode::Unavailable, 5),
    ] {
        assert_eq!(code.code(), byte);
    }
}

/// PROTOCOL.md §1.1 — length 0 and lengths above 1 MiB are malformed
/// before any body is buffered; everything in between is accepted.
#[test]
fn length_bounds_protocol_1_1() {
    assert_eq!(check_length(0), Err(DecodeError::BadLength(0)));
    assert_eq!(check_length(1), Ok(1));
    assert_eq!(check_length(MAX_FRAME), Ok(MAX_FRAME as usize));
    assert_eq!(
        check_length(MAX_FRAME + 1),
        Err(DecodeError::BadLength(MAX_FRAME + 1))
    );
}

/// PROTOCOL.md §1 + §6 — payload size mismatches are malformed: a frame
/// whose payload is shorter than its opcode demands is truncated, one
/// with extra bytes after a fixed-size layout carries trailing bytes, and
/// an unassigned opcode byte is unknown.
#[test]
fn malformed_bodies_protocol_1_and_6() {
    // PONG (§4.3) wants 8 payload bytes; 4 is truncated.
    assert_eq!(
        decode_body(&[0x22, 1, 2, 3, 4]),
        Err(DecodeError::Truncated)
    );
    // PING (§3.3) wants none; one extra is trailing.
    assert_eq!(decode_body(&[0x12, 0]), Err(DecodeError::TrailingBytes));
    // 0x7F is not assigned by §2–§6.
    assert_eq!(decode_body(&[0x7F]), Err(DecodeError::UnknownOpcode(0x7F)));
    // HELLO (§2.1) with the wrong magic is rejected before the version.
    assert_eq!(
        decode_body(&[0x01, b'N', b'O', b'P', b'E', 1, 0]),
        Err(DecodeError::BadMagic)
    );
    // SHED (§5.1) reason 9 is outside the table.
    assert_eq!(
        decode_body(&[0x2E, 9, 0, 0, 0, 0, 0, 0, 0, 0]),
        Err(DecodeError::BadField)
    );
    // ERROR (§6) code 0 is outside the table.
    assert_eq!(decode_body(&[0x2F, 0]), Err(DecodeError::BadField));
    // An empty body has no opcode (§1: length ≥ 1).
    assert_eq!(decode_body(&[]), Err(DecodeError::Truncated));
}

/// The opcode byte of every vector a line of `src` opens a `golden` call
/// with: the fifth element of the call's byte array (four length bytes come
/// first, PROTOCOL.md §1), written in hex as every vector above writes it.
fn golden_opcodes(src: &str) -> BTreeSet<u8> {
    let mut out = BTreeSet::new();
    for (at, _) in src.match_indices("golden(") {
        let line_start = src[..at].rfind('\n').map_or(0, |n| n + 1);
        if !src[line_start..at].trim().is_empty() {
            continue;
        }
        let Some((_, bytes)) = src[at..].split_once("&[") else {
            continue;
        };
        let bytes: String = bytes
            .split(']')
            .next()
            .unwrap_or_default()
            .lines()
            .map(|line| line.split("//").next().unwrap_or_default())
            .collect();
        let opcode = bytes
            .split(',')
            .nth(4)
            .and_then(|b| b.trim().strip_prefix("0x"));
        out.extend(opcode.and_then(|hex| u8::from_str_radix(hex, 16).ok()));
    }
    out
}

/// Every ``opcode `0x..` `` anchor in the protocol document.
fn documented_opcodes(doc: &str) -> BTreeSet<u8> {
    doc.split("opcode `0x")
        .skip(1)
        .filter_map(|rest| u8::from_str_radix(rest.get(..2)?, 16).ok())
        .collect()
}

/// The opcodes `decode_body` assigns a frame type to: every byte it does not
/// reject as unknown.
fn decodable_opcodes() -> BTreeSet<u8> {
    (0..=u8::MAX)
        .filter(|&b| !matches!(decode_body(&[b]), Err(DecodeError::UnknownOpcode(_))))
        .collect()
}

/// One line per opcode that is missing from one of the three sets.
fn wire_gaps(
    decoded: &BTreeSet<u8>,
    golden: &BTreeSet<u8>,
    documented: &BTreeSet<u8>,
) -> Vec<String> {
    let mut gaps = Vec::new();
    for op in &(decoded | golden) | documented {
        for (set, what) in [
            (decoded, "decode arm"),
            (golden, "golden vector"),
            (documented, "PROTOCOL.md anchor"),
        ] {
            if !set.contains(&op) {
                gaps.push(format!("opcode 0x{op:02X} has no {what}"));
            }
        }
    }
    gaps
}

/// Wire totality: the opcodes the decoder knows, the opcodes of the golden
/// vectors above, and the ``opcode `0x..` `` anchors of PROTOCOL.md are one
/// set. (Encoding is total by construction: `Frame::opcode` is an exhaustive
/// match, and each golden vector round-trips through `encode`.)
#[test]
fn decoder_golden_vectors_and_protocol_doc_agree_on_every_opcode() {
    let decoded = decodable_opcodes();
    assert_eq!(decoded.len(), 12, "{decoded:02X?}");
    let golden = golden_opcodes(include_str!("protocol_golden.rs"));
    let documented = documented_opcodes(include_str!("../../../docs/PROTOCOL.md"));
    let gaps = wire_gaps(&decoded, &golden, &documented);
    assert!(gaps.is_empty(), "{}", gaps.join("\n"));
}

#[test]
fn an_undocumented_opcode_and_an_unimplemented_anchor_are_gaps() {
    let src = concat!(
        "    golden(Frame::Ping, &[1, 0, 0, 0, 0x12]);\n",
        "    golden(\n",
        "        Frame::Pong { epoch: 6 },\n",
        "        &[\n",
        "            9, 0, 0, 0, // length\n",
        "            0x22, // opcode PONG\n",
        "            6, 0, 0, 0, 0, 0, 0, 0,\n",
        "        ],\n",
        "    );\n",
        "fn golden(frame: Frame, expected: &[u8]) {}\n",
    );
    let golden = golden_opcodes(src);
    assert_eq!(golden, BTreeSet::from([0x12, 0x22]));
    let decoded = BTreeSet::from([0x12, 0x22]);
    // PONG has no anchor; the doc names a 0x30 nothing implements.
    let doc = documented_opcodes("## PING — opcode `0x12`\n## RESET — opcode `0x30`\n");
    assert_eq!(
        wire_gaps(&decoded, &golden, &doc),
        [
            "opcode 0x22 has no PROTOCOL.md anchor",
            "opcode 0x30 has no decode arm",
            "opcode 0x30 has no golden vector",
        ]
    );
}
