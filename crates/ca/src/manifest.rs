//! The `/RITM.json` bootstrap manifest (paper §VIII, "Bootstrapping CAs into
//! RITM").
//!
//! A CA that starts deploying RITM publishes a short signed manifest at a
//! predefined location; RAs poll it (e.g. weekly) to discover the CDN
//! address of the dictionary and the CA's local Δ. The JSON encoder/parser
//! here is deliberately minimal (flat object, string/number values), in
//! lieu of a serde dependency (README, "Substitutions").

use ritm_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use ritm_crypto::hex;
use ritm_dictionary::CaId;

/// A CA's RITM bootstrap manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Human-readable CA name.
    pub ca_name: String,
    /// The CA identifier (must equal `CaId::from_name(ca_name)`).
    pub ca: CaId,
    /// The CA's dissemination period Δ in seconds (local Δ, §VIII).
    pub delta: u64,
    /// Where the dictionary feed lives on the CDN.
    pub cdn_address: String,
}

/// Why a manifest failed to parse or verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Structurally invalid JSON or missing field.
    Malformed(&'static str),
    /// The signature does not verify under the CA key.
    BadSignature,
    /// `ca` does not match `ca_name`.
    IdMismatch,
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ManifestError::Malformed(what) => write!(f, "malformed manifest: {what}"),
            ManifestError::BadSignature => f.write_str("manifest signature invalid"),
            ManifestError::IdMismatch => f.write_str("manifest ca id does not match name"),
        }
    }
}

impl std::error::Error for ManifestError {}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Manifest {
    fn payload_json(&self) -> String {
        format!(
            "{{\"ca_name\":\"{}\",\"ca\":\"{}\",\"delta\":{},\"cdn\":\"{}\"}}",
            json_escape(&self.ca_name),
            self.ca,
            self.delta,
            json_escape(&self.cdn_address),
        )
    }

    /// Serializes and signs the manifest:
    /// `{"manifest": {...}, "sig": "<hex>"}`.
    pub fn to_json_signed(&self, key: &SigningKey) -> String {
        let payload = self.payload_json();
        let sig = key.sign(payload.as_bytes());
        format!(
            "{{\"manifest\":{},\"sig\":\"{}\"}}",
            payload,
            hex::encode(sig.as_bytes()),
        )
    }

    /// Parses and verifies a signed manifest.
    ///
    /// # Errors
    ///
    /// See [`ManifestError`].
    pub fn from_json_signed(json: &str, key: &VerifyingKey) -> Result<Self, ManifestError> {
        let manifest_str = extract_object(json, "manifest")
            .ok_or(ManifestError::Malformed("missing manifest object"))?;
        let sig_hex = extract_string(json, "sig").ok_or(ManifestError::Malformed("missing sig"))?;
        let sig_bytes: [u8; 64] = hex::decode_array(&sig_hex)
            .map_err(|_| ManifestError::Malformed("sig not 64 hex bytes"))?;
        key.verify(manifest_str.as_bytes(), &Signature::from_bytes(sig_bytes))
            .map_err(|_| ManifestError::BadSignature)?;

        let ca_name = extract_string(&manifest_str, "ca_name")
            .ok_or(ManifestError::Malformed("missing ca_name"))?;
        let ca_hex =
            extract_string(&manifest_str, "ca").ok_or(ManifestError::Malformed("missing ca"))?;
        let ca_bytes: [u8; 8] = hex::decode_array(&ca_hex)
            .map_err(|_| ManifestError::Malformed("ca not 8 hex bytes"))?;
        let delta = extract_number(&manifest_str, "delta")
            .ok_or(ManifestError::Malformed("missing delta"))?;
        let cdn_address =
            extract_string(&manifest_str, "cdn").ok_or(ManifestError::Malformed("missing cdn"))?;

        let ca = CaId(ca_bytes);
        if CaId::from_name(&ca_name) != ca {
            return Err(ManifestError::IdMismatch);
        }
        Ok(Manifest {
            ca_name,
            ca,
            delta,
            cdn_address,
        })
    }
}

/// Pulls the raw text of `"key": { ... }` out of a flat-ish JSON string.
fn extract_object(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let open = rest.find('{')?;
    let mut depth = 0;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts a string value for `key` (handles escaped quotes).
fn extract_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let hex4: String = (&mut chars).take(4).collect();
                    let code = u32::from_str_radix(&hex4, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts an unsigned integer value for `key`.
fn extract_number(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            ca_name: "TestCA".into(),
            ca: CaId::from_name("TestCA"),
            delta: 60,
            cdn_address: "cdn.example/testca".into(),
        }
    }

    fn key() -> SigningKey {
        SigningKey::from_seed([1u8; 32])
    }

    #[test]
    fn sign_parse_round_trip() {
        let m = manifest();
        let json = m.to_json_signed(&key());
        let back = Manifest::from_json_signed(&json, &key().verifying_key()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tampered_delta_rejected() {
        let json = manifest().to_json_signed(&key());
        let tampered = json.replace("\"delta\":60", "\"delta\":86400");
        assert_eq!(
            Manifest::from_json_signed(&tampered, &key().verifying_key()),
            Err(ManifestError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let json = manifest().to_json_signed(&key());
        let other = SigningKey::from_seed([2u8; 32]);
        assert_eq!(
            Manifest::from_json_signed(&json, &other.verifying_key()),
            Err(ManifestError::BadSignature)
        );
    }

    #[test]
    fn name_id_mismatch_rejected() {
        let mut m = manifest();
        m.ca = CaId::from_name("OtherCA");
        let json = m.to_json_signed(&key());
        assert_eq!(
            Manifest::from_json_signed(&json, &key().verifying_key()),
            Err(ManifestError::IdMismatch)
        );
    }

    #[test]
    fn escaping_survives_round_trip() {
        let m = Manifest {
            ca_name: "Weird \"CA\" \\ name".into(),
            ca: CaId::from_name("Weird \"CA\" \\ name"),
            delta: 1,
            cdn_address: "cdn/with\"quote".into(),
        };
        let json = m.to_json_signed(&key());
        let back = Manifest::from_json_signed(&json, &key().verifying_key()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn garbage_rejected() {
        for bad in ["", "{}", "{\"manifest\":{}}", "not json at all"] {
            assert!(Manifest::from_json_signed(bad, &key().verifying_key()).is_err());
        }
    }
}
