//! The load generator's own HTTP/1.1 framing: request bytes out, an
//! incremental response reader in. It is independent of the daemon's
//! parser so a framing bug on either side shows as a failed request
//! instead of cancelling out.

/// Largest response body the reader accepts, bytes.
const MAX_BODY: usize = 64 << 20;
/// Largest response header block the reader accepts, bytes.
const MAX_HEAD: usize = 64 << 10;

/// Encodes one keep-alive request.
pub fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// The daemon announced `Connection: close`.
    pub close: bool,
}

/// Incremental reader: feed it bytes as they arrive, take responses out in
/// order. Pipelined responses in one read and responses split across reads
/// both frame correctly.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// A description of the framing fault; the stream cannot be resynced.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            if self.buf.len() > MAX_HEAD {
                return Err(format!("no end of headers in {} bytes", self.buf.len()));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return Err(format!("bad status line {status_line:?}"));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(format!("bad status line {status_line:?}"));
        }
        let status: u16 = code
            .parse()
            .map_err(|_| format!("bad status code {code:?}"))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header line {line:?}"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
                if n > MAX_BODY {
                    return Err(format!("Content-Length {n} over the {MAX_BODY}-byte limit"));
                }
                length = Some(n);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| "response without Content-Length".to_string())?;
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Response {
            status,
            body,
            close,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(status: u16, body: &str, connection: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn request_carries_length_and_body() {
        let r = request("POST", "/v1/plan", b"{\"a\":1}");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("POST /v1/plan HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn pipelined_responses_in_one_read() {
        let mut r = ResponseReader::default();
        let mut bytes = wire(200, "{\"x\":1}", "keep-alive");
        bytes.extend(wire(429, "busy", "keep-alive"));
        r.feed(&bytes);
        let a = r.next_response().unwrap().unwrap();
        assert_eq!(
            (a.status, a.body.as_slice(), a.close),
            (200, &b"{\"x\":1}"[..], false)
        );
        let b = r.next_response().unwrap().unwrap();
        assert_eq!((b.status, b.body.as_slice()), (429, &b"busy"[..]));
        assert_eq!(r.next_response().unwrap(), None);
        assert!(r.buf.is_empty(), "every byte framed");
    }

    #[test]
    fn response_split_at_every_byte() {
        let bytes = wire(200, "hello world", "close");
        for cut in 0..bytes.len() {
            let mut r = ResponseReader::default();
            r.feed(&bytes[..cut]);
            assert_eq!(r.next_response().unwrap(), None, "cut at {cut}");
            r.feed(&bytes[cut..]);
            let resp = r.next_response().unwrap().unwrap();
            assert_eq!(resp.body, b"hello world");
            assert!(resp.close);
        }
    }

    #[test]
    fn empty_body_frames() {
        let mut r = ResponseReader::default();
        r.feed(&wire(204, "", "keep-alive"));
        assert_eq!(r.next_response().unwrap().unwrap().body, b"");
    }

    #[test]
    fn framing_faults_are_errors() {
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\nbody");
        assert!(r.next_response().is_err(), "missing Content-Length");

        let mut r = ResponseReader::default();
        r.feed(b"SMTP 200 OK\r\nContent-Length: 0\r\n\r\n");
        assert!(r.next_response().is_err(), "not HTTP");

        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n");
        assert!(r.next_response().is_err(), "oversized body");

        let mut r = ResponseReader::default();
        r.feed(&vec![b'x'; MAX_HEAD + 1]);
        assert!(r.next_response().is_err(), "unbounded head");
    }
}
