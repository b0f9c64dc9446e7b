//! Blocking helpers for tests and tools: send a request, read a head,
//! read a sized body.

use crate::error::RelayError;
use bytes::BytesMut;
use ir_http::{encode_request, parse_response, Parsed, Request, Response};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Sends a request head on `stream`.
pub fn send_request(stream: &mut TcpStream, req: &Request) -> Result<(), RelayError> {
    let mut buf = BytesMut::new();
    encode_request(req, &mut buf);
    Ok(stream.write_all(&buf)?)
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
    body.truncate(len as usize);
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
