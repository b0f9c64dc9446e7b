//! Small blocking HTTP client primitives shared by the socket engine
//! and tests: send a request, read a head, read a sized body.

use crate::error::RelayError;
use bytes::BytesMut;
use ir_http::{encode_request, parse_response, Parsed, Request, Response, StatusCode};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Sends a request head on `stream`.
pub fn send_request(stream: &mut TcpStream, req: &Request) -> Result<(), RelayError> {
    let mut buf = BytesMut::new();
    encode_request(req, &mut buf);
    stream.write_all(&buf)?;
    Ok(())
}

/// Reads a response head; returns it plus any body bytes that arrived
/// with it.
pub fn read_head(stream: &mut TcpStream) -> Result<(Response, Vec<u8>), RelayError> {
    let mut buf = BytesMut::new();
    loop {
        match parse_response(&buf[..])? {
            Parsed::Complete { value, consumed } => {
                let _ = buf.split_to(consumed);
                return Ok((value, buf.to_vec()));
            }
            Parsed::Partial => {
                let mut chunk = [0u8; 8192];
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(RelayError::Http(ir_http::HttpError::UnexpectedEof));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

/// Reads exactly `len` body bytes, `prefix` first.
pub fn read_body(stream: &mut TcpStream, prefix: Vec<u8>, len: u64) -> Result<Vec<u8>, RelayError> {
    let mut body = prefix;
    if body.len() as u64 > len {
        body.truncate(len as usize);
    }
    let mut chunk = vec![0u8; 16 * 1024];
    while (body.len() as u64) < len {
        let want = ((len - body.len() as u64) as usize).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(RelayError::Http(ir_http::HttpError::UnexpectedEof));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(body)
}

/// One full range request/response exchange, validated once for every
/// caller: `206` and exactly the `bytes` asked for, or the path has
/// failed.
pub fn fetch_range(conn: &mut TcpStream, req: &Request, bytes: u64) -> Result<Vec<u8>, RelayError> {
    send_request(conn, req)?;
    let (head, prefix) = read_head(conn)?;
    if head.status != StatusCode::PARTIAL_CONTENT {
        return Err(RelayError::BadStatus(head.status.0));
    }
    match head.headers.content_length()? {
        Some(len) if len == bytes => read_body(conn, prefix, len),
        len => Err(RelayError::BadResponse(format!(
            "asked for {bytes} bytes, Content-Length {len:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{body_byte, OriginConfig, OriginServer};
    use ir_http::ByteRange;

    #[test]
    fn exchange_round_trip() {
        let origin = OriginServer::start(OriginConfig::new(5_000)).unwrap();
        let mut s = TcpStream::connect(origin.addr()).unwrap();
        let req = Request::get("/f")
            .with_header("Host", "o")
            .with_header("Range", ByteRange::first(100).to_string());
        let body = fetch_range(&mut s, &req, 100).unwrap();
        assert_eq!(body.len(), 100);
        assert!(body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64)));
    }

    #[test]
    fn sequential_exchanges_on_one_connection() {
        let origin = OriginServer::start(OriginConfig::new(5_000)).unwrap();
        let mut s = TcpStream::connect(origin.addr()).unwrap();
        for k in 0..3u64 {
            let req = Request::get("/f")
                .with_header("Host", "o")
                .with_header("Range", format!("bytes={}-{}", k * 7, k * 7 + 6));
            let body = fetch_range(&mut s, &req, 7).unwrap();
            assert_eq!(body.len(), 7);
            assert_eq!(body[0], body_byte(k * 7));
        }
    }
}
