//! Resource records.
//!
//! "BIND data is stored as a collection of resource records, each of which
//! can be up to 256 bytes of data. Separate resource records are intended
//! to store alternate data for one name, e.g., multiple network addresses
//! for gateway hosts."
//!
//! The `UNSPEC` type is the extension of the paper's modified BIND, which
//! was altered "to support both dynamic updates and also data of
//! unspecified type" so it could serve as the HNS meta-naming repository.

use std::iter;
use std::sync::Arc;

use simnet::topology::{HostId, NetAddr};
use wire::Value;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;

/// Maximum rdata size per record.
pub const MAX_RDATA: usize = 256;

/// Record type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RType {
    /// Host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias target).
    Cname,
    /// Arbitrary text.
    Txt,
    /// Host information (CPU and OS).
    Hinfo,
    /// Well-known services.
    Wks,
    /// Mail exchanger.
    Mx,
    /// Start of authority.
    Soa,
    /// Data of unspecified type (the HNS meta-information extension).
    Unspec,
}

impl RType {
    /// Wire code.
    pub fn code(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Wks => 11,
            RType::Hinfo => 13,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Unspec => 103,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u16) -> NsResult<RType> {
        match code {
            1 => Ok(RType::A),
            2 => Ok(RType::Ns),
            5 => Ok(RType::Cname),
            6 => Ok(RType::Soa),
            11 => Ok(RType::Wks),
            13 => Ok(RType::Hinfo),
            15 => Ok(RType::Mx),
            16 => Ok(RType::Txt),
            103 => Ok(RType::Unspec),
            other => Err(NsError::BadRecord(format!("unknown rtype code {other}"))),
        }
    }
}

impl std::fmt::Display for RType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RType::A => "A",
            RType::Ns => "NS",
            RType::Cname => "CNAME",
            RType::Soa => "SOA",
            RType::Wks => "WKS",
            RType::Hinfo => "HINFO",
            RType::Mx => "MX",
            RType::Txt => "TXT",
            RType::Unspec => "UNSPEC",
        };
        f.write_str(s)
    }
}

/// Typed record data. Payloads are shared, so cloning a record out of a
/// zone copies no bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// A network address (for `A` records).
    Addr(NetAddr),
    /// A domain name (for `NS`, `CNAME`, `MX` targets).
    Domain(DomainName),
    /// Text (for `TXT`, `HINFO`).
    Text(Arc<str>),
    /// Opaque bytes (for `WKS`, `UNSPEC`).
    Opaque(Arc<[u8]>),
    /// Start-of-authority payload.
    Soa {
        /// Primary server host name.
        primary: DomainName,
        /// Zone serial number.
        serial: u32,
        /// Default TTL for the zone, seconds.
        default_ttl: u32,
    },
}

impl RData {
    /// Tag byte that opens the serialized form of an [`RData::Opaque`].
    pub(crate) const OPAQUE_TAG: u8 = 3;

    /// Length of [`RData::to_bytes`]'s output: a tag byte plus the
    /// payload.
    pub fn wire_len(&self) -> usize {
        1 + match self {
            RData::Addr(_) => 4,
            RData::Domain(name) => name.wire_len(),
            RData::Text(s) => s.len(),
            RData::Opaque(data) => data.len(),
            RData::Soa { primary, .. } => 8 + primary.wire_len(),
        }
    }

    /// [`RData::wire_len`], or the error [`RData::to_bytes`] gives for
    /// rdata over [`MAX_RDATA`].
    pub fn checked_len(&self) -> NsResult<usize> {
        let len = self.wire_len();
        if len > MAX_RDATA {
            return Err(NsError::BadRecord(format!(
                "rdata {len} bytes exceeds {MAX_RDATA}"
            )));
        }
        Ok(len)
    }

    /// Serializes to rdata bytes (bounded by [`MAX_RDATA`]): the tag byte
    /// and the payload, written once into a shared buffer of the exact
    /// size.
    pub fn to_bytes(&self) -> NsResult<Arc<[u8]>> {
        self.checked_len()?;
        let tagged = |tag: u8, payload: &[u8]| -> Arc<[u8]> {
            iter::once(tag).chain(payload.iter().copied()).collect()
        };
        Ok(match self {
            RData::Addr(addr) => tagged(0, &addr.host.0.to_be_bytes()),
            RData::Domain(name) => tagged(1, name.as_str().as_bytes()),
            RData::Text(s) => tagged(2, s.as_bytes()),
            RData::Opaque(data) => tagged(Self::OPAQUE_TAG, data),
            RData::Soa {
                primary,
                serial,
                default_ttl,
            } => iter::once(4)
                .chain(serial.to_be_bytes())
                .chain(default_ttl.to_be_bytes())
                .chain(primary.as_str().as_bytes().iter().copied())
                .collect(),
        })
    }

    /// Deserializes rdata bytes.
    pub fn from_bytes(bytes: &[u8]) -> NsResult<RData> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| NsError::BadRecord("empty rdata".into()))?;
        match tag {
            0 => {
                let arr: [u8; 4] = rest
                    .try_into()
                    .map_err(|_| NsError::BadRecord("bad A rdata".into()))?;
                Ok(RData::Addr(NetAddr::of(HostId(u32::from_be_bytes(arr)))))
            }
            1 => {
                let s = std::str::from_utf8(rest)
                    .map_err(|_| NsError::BadRecord("bad domain rdata".into()))?;
                Ok(RData::Domain(DomainName::parse(s)?))
            }
            2 => {
                let s = std::str::from_utf8(rest)
                    .map_err(|_| NsError::BadRecord("bad text rdata".into()))?;
                Ok(RData::Text(s.into()))
            }
            Self::OPAQUE_TAG => Ok(RData::Opaque(rest.into())),
            4 => {
                if rest.len() < 8 {
                    return Err(NsError::BadRecord("short SOA rdata".into()));
                }
                let serial = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes"));
                let default_ttl = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes"));
                let s = std::str::from_utf8(&rest[8..])
                    .map_err(|_| NsError::BadRecord("bad SOA primary".into()))?;
                Ok(RData::Soa {
                    primary: DomainName::parse(s)?,
                    serial,
                    default_ttl,
                })
            }
            other => Err(NsError::BadRecord(format!("unknown rdata tag {other}"))),
        }
    }
}

/// One resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Record type.
    pub rtype: RType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Payload.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Builds an `A` record.
    pub fn a(name: DomainName, ttl: u32, addr: NetAddr) -> Self {
        ResourceRecord {
            name,
            rtype: RType::A,
            ttl,
            rdata: RData::Addr(addr),
        }
    }

    /// Builds a `TXT` record.
    pub fn txt(name: DomainName, ttl: u32, text: impl Into<Arc<str>>) -> Self {
        ResourceRecord {
            name,
            rtype: RType::Txt,
            ttl,
            rdata: RData::Text(text.into()),
        }
    }

    /// Builds an `UNSPEC` record carrying opaque bytes.
    pub fn unspec(name: DomainName, ttl: u32, data: impl Into<Arc<[u8]>>) -> Self {
        ResourceRecord {
            name,
            rtype: RType::Unspec,
            ttl,
            rdata: RData::Opaque(data.into()),
        }
    }

    /// Builds a `CNAME` record.
    pub fn cname(name: DomainName, ttl: u32, target: DomainName) -> Self {
        ResourceRecord {
            name,
            rtype: RType::Cname,
            ttl,
            rdata: RData::Domain(target),
        }
    }

    /// Serializes to a wire value (used by the HRPC interface to BIND).
    /// The value shares the owner's text; the rdata bytes are its one
    /// allocation besides the field vector.
    pub fn to_value(&self) -> NsResult<Value> {
        Ok(Value::record([
            ("name", Value::Str(self.name.shared_text())),
            ("rtype", Value::U32(self.rtype.code() as u32)),
            ("ttl", Value::U32(self.ttl)),
            ("rdata", Value::Bytes(self.rdata.to_bytes()?)),
        ]))
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<ResourceRecord> {
        RecordView::read(v, None)?.to_record(None)
    }

    /// Approximate stored size in bytes (for zone-transfer costing).
    pub fn size_bytes(&self) -> usize {
        self.name.wire_len() + 8 + self.rdata.checked_len().unwrap_or(0)
    }
}

/// A record read in place from its wire [`Value`]: the owner's text is
/// checked but not copied, and the rdata stays serialized. It backs
/// [`ResourceRecord::from_value`], [`crate::message::Answer::from_value`]
/// and readers that need only the payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// The owner's text, valid as a [`DomainName`].
    pub owner: &'a Arc<str>,
    /// Record type.
    pub rtype: RType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Serialized rdata ([`RData::to_bytes`]), not yet decoded.
    pub rdata: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Reads the fields of a record value, with the checks and errors of
    /// [`ResourceRecord::from_value`] in the same order, except that the
    /// rdata is not decoded. An owner equal to `prev` (the previous owner
    /// of the same set) was checked already and is not checked again.
    pub fn read(v: &'a Value, prev: Option<&str>) -> NsResult<RecordView<'a>> {
        fn get<T>(r: Result<T, wire::WireError>) -> NsResult<T> {
            r.map_err(|e| NsError::BadRecord(e.to_string()))
        }
        let owner = get(v.field("name").and_then(Value::as_shared_str))?;
        if prev != Some(&**owner) {
            DomainName::check(owner)?;
        }
        let rtype = RType::from_code(get(v.u32_field("rtype"))? as u16)?;
        let ttl = get(v.u32_field("ttl"))?;
        let rdata = get(get(v.field("rdata"))?.as_bytes())?;
        Ok(RecordView {
            owner,
            rtype,
            ttl,
            rdata,
        })
    }

    /// The payload of an `UNSPEC`-style opaque rdata, read in place;
    /// `None` for any other rdata.
    pub fn opaque(&self) -> Option<&'a [u8]> {
        match self.rdata.split_first() {
            Some((&RData::OPAQUE_TAG, payload)) => Some(payload),
            _ => None,
        }
    }

    /// Builds the record, decoding the rdata. The owner is shared with
    /// `prev` when the text is the same, and otherwise takes over the
    /// incoming text ([`DomainName::adopt`]).
    pub fn to_record(&self, prev: Option<&DomainName>) -> NsResult<ResourceRecord> {
        let name = match prev {
            Some(prev) if prev.as_str() == &**self.owner => prev.clone(),
            _ => DomainName::adopt(self.owner)?,
        };
        Ok(ResourceRecord {
            name,
            rtype: self.rtype,
            ttl: self.ttl,
            rdata: RData::from_bytes(self.rdata)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    #[test]
    fn rtype_codes_roundtrip() {
        for t in [
            RType::A,
            RType::Ns,
            RType::Cname,
            RType::Soa,
            RType::Wks,
            RType::Hinfo,
            RType::Mx,
            RType::Txt,
            RType::Unspec,
        ] {
            assert_eq!(RType::from_code(t.code()).expect("roundtrip"), t);
        }
        assert!(RType::from_code(999).is_err());
    }

    #[test]
    fn rdata_roundtrips() {
        let cases = vec![
            RData::Addr(NetAddr::of(HostId(7))),
            RData::Domain(name("ns.cs.washington.edu")),
            RData::Text("VAX-II / Unix".into()),
            RData::Opaque(vec![1, 2, 3].into()),
            RData::Soa {
                primary: name("ns.cs.washington.edu"),
                serial: 42,
                default_ttl: 3600,
            },
        ];
        for rdata in cases {
            let bytes = rdata.to_bytes().expect("encode");
            assert_eq!(RData::from_bytes(&bytes).expect("decode"), rdata);
        }
    }

    #[test]
    fn oversized_rdata_rejected() {
        let rdata = RData::Opaque(vec![0; MAX_RDATA].into());
        assert!(rdata.to_bytes().is_err());
        let ok = RData::Opaque(vec![0; MAX_RDATA - 1].into());
        assert!(ok.to_bytes().is_ok());
    }

    #[test]
    fn record_value_roundtrip() {
        let rr = ResourceRecord::a(
            name("fiji.cs.washington.edu"),
            86_400,
            NetAddr::of(HostId(3)),
        );
        let v = rr.to_value().expect("to value");
        assert_eq!(ResourceRecord::from_value(&v).expect("from value"), rr);
    }

    #[test]
    fn unspec_record_value_roundtrip() {
        let rr = ResourceRecord::unspec(name("hns-meta.hns"), 600, b"ns=BIND".to_vec());
        let v = rr.to_value().expect("to value");
        assert_eq!(ResourceRecord::from_value(&v).expect("from value"), rr);
    }

    #[test]
    fn malformed_rdata_rejected() {
        assert!(RData::from_bytes(&[]).is_err());
        assert!(RData::from_bytes(&[0, 1]).is_err()); // short A
        assert!(RData::from_bytes(&[9, 0]).is_err()); // unknown tag
        assert!(RData::from_bytes(&[4, 0, 0]).is_err()); // short SOA
        assert!(RData::from_bytes(&[1, 0xFF]).is_err()); // bad UTF-8 domain
    }

    #[test]
    fn size_reflects_contents() {
        let small = ResourceRecord::txt(name("a.b"), 60, "x");
        let large = ResourceRecord::txt(name("a.b"), 60, "x".repeat(200));
        assert!(large.size_bytes() > small.size_bytes());
    }

    #[test]
    fn builders_set_types() {
        assert_eq!(
            ResourceRecord::cname(name("a.b"), 1, name("c.d")).rtype,
            RType::Cname
        );
        assert_eq!(ResourceRecord::txt(name("a.b"), 1, "t").rtype, RType::Txt);
        assert_eq!(
            ResourceRecord::unspec(name("a.b"), 1, vec![]).rtype,
            RType::Unspec
        );
    }
}
