//! Compute-board firmware protection (§1).
//!
//! "Besides, a bm-guest does not have unfettered control over the whole
//! server. ... The firmware of the compute board is properly signed,
//! and can only be updated if the signature of the new firmware passes
//! the verification."
//!
//! This is the mechanism that separates BM-Hive from single-tenant
//! bare-metal rental, where a malicious tenant can implant the BMC/BIOS
//! and persist across tenancies. [`FirmwareStore`] verifies provider
//! signatures before flashing and enforces rollback protection, so even
//! a tenant with full OS control cannot leave anything behind for the
//! next tenant.

use std::error::Error;
use std::fmt;

/// The provider's signing key (the FPGA holds the public half in fuses;
/// this simulation models both halves as one secret).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigningKey(u64);

impl SigningKey {
    /// Creates a key from secret material.
    pub fn new(secret: u64) -> Self {
        SigningKey(secret)
    }

    /// Signs a firmware payload at a security version.
    pub fn sign(&self, payload: &[u8], security_version: u32) -> Signature {
        Signature(digest(self.0, payload, security_version))
    }
}

/// A firmware signature (keyed digest over payload + version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(u64);

/// FNV-1a-style keyed digest — not cryptographic, but a faithful
/// *mechanism* model: any bit flip in payload, version or key changes
/// the value.
fn digest(key: u64, payload: &[u8], security_version: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ key;
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    for b in security_version.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A signed firmware image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirmwareImage {
    /// Human-readable version string.
    pub version: String,
    /// Monotonic anti-rollback counter.
    pub security_version: u32,
    /// The EFI payload.
    pub payload: Vec<u8>,
    /// Provider signature.
    pub signature: Signature,
}

impl FirmwareImage {
    /// Builds and signs an image.
    pub fn signed(
        key: &SigningKey,
        version: impl Into<String>,
        security_version: u32,
        payload: Vec<u8>,
    ) -> Self {
        let signature = key.sign(&payload, security_version);
        FirmwareImage {
            version: version.into(),
            security_version,
            payload,
            signature,
        }
    }
}

/// Why a firmware update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirmwareError {
    /// The signature does not verify (tampered payload or wrong key).
    BadSignature,
    /// The image's security version is older than the installed one
    /// (rollback attack).
    Rollback {
        /// Installed security version.
        installed: u32,
        /// Offered security version.
        offered: u32,
    },
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::BadSignature => write!(f, "firmware signature verification failed"),
            FirmwareError::Rollback { installed, offered } => write!(
                f,
                "firmware rollback refused: installed svn {installed}, offered svn {offered}"
            ),
        }
    }
}

impl Error for FirmwareError {}

/// The compute board's firmware flash, with verification at the update
/// gate.
#[derive(Debug)]
pub struct FirmwareStore {
    key: SigningKey,
    installed: FirmwareImage,
}

impl FirmwareStore {
    /// Provisions a board with factory firmware.
    ///
    /// # Panics
    ///
    /// Panics if the factory image itself does not verify — the board
    /// would be bricked at manufacturing.
    pub fn provision(key: SigningKey, factory: FirmwareImage) -> Self {
        assert_eq!(
            key.sign(&factory.payload, factory.security_version),
            factory.signature,
            "factory firmware must be signed"
        );
        FirmwareStore {
            key,
            installed: factory,
        }
    }

    /// The installed firmware version.
    pub fn installed_version(&self) -> &str {
        &self.installed.version
    }

    /// Attempts a firmware update — callable by anyone, including the
    /// tenant; only verified, non-rollback images flash.
    ///
    /// # Errors
    ///
    /// [`FirmwareError::BadSignature`] for tampered or foreign images;
    /// [`FirmwareError::Rollback`] for stale security versions.
    pub fn update(&mut self, image: FirmwareImage) -> Result<(), FirmwareError> {
        if self.key.sign(&image.payload, image.security_version) != image.signature {
            return Err(FirmwareError::BadSignature);
        }
        if image.security_version < self.installed.security_version {
            return Err(FirmwareError::Rollback {
                installed: self.installed.security_version,
                offered: image.security_version,
            });
        }
        self.installed = image;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provisioned() -> (SigningKey, FirmwareStore) {
        let key = SigningKey::new(0x5eed);
        let factory = FirmwareImage::signed(&key, "efi-1.0", 1, b"factory efi".to_vec());
        (key, FirmwareStore::provision(key, factory))
    }

    #[test]
    fn provider_update_flashes() {
        let (key, mut store) = provisioned();
        let next = FirmwareImage::signed(&key, "efi-1.1", 2, b"new efi with virtio boot".to_vec());
        store.update(next).unwrap();
        assert_eq!(store.installed_version(), "efi-1.1");
        assert_eq!(store.installed.security_version, 2);
    }

    #[test]
    fn tenant_implant_is_rejected() {
        let (key, mut store) = provisioned();
        // The tenant copies a valid image and patches the payload.
        let mut implant = FirmwareImage::signed(&key, "efi-1.1", 2, b"legit".to_vec());
        implant.payload = b"EVIL!".to_vec();
        assert_eq!(store.update(implant), Err(FirmwareError::BadSignature));
        // Or signs with their own key.
        let tenant_key = SigningKey::new(0xbad);
        let foreign = FirmwareImage::signed(&tenant_key, "efi-1.1", 2, b"EVIL!".to_vec());
        assert_eq!(store.update(foreign), Err(FirmwareError::BadSignature));
        assert_eq!(store.installed_version(), "efi-1.0");
    }

    #[test]
    fn rollback_to_vulnerable_firmware_is_refused() {
        let (key, mut store) = provisioned();
        store
            .update(FirmwareImage::signed(
                &key,
                "efi-2.0",
                5,
                b"patched".to_vec(),
            ))
            .unwrap();
        // A properly-signed but OLD image (known-vulnerable) is refused.
        let old = FirmwareImage::signed(&key, "efi-1.0", 1, b"factory efi".to_vec());
        assert_eq!(
            store.update(old),
            Err(FirmwareError::Rollback {
                installed: 5,
                offered: 1
            })
        );
        assert_eq!(store.installed_version(), "efi-2.0");
    }

    #[test]
    fn same_svn_reflash_is_allowed() {
        // Re-flashing the current version (recovery) is not a rollback.
        let (key, mut store) = provisioned();
        let same = FirmwareImage::signed(&key, "efi-1.0b", 1, b"factory efi rebuild".to_vec());
        store.update(same).unwrap();
        assert_eq!(store.installed_version(), "efi-1.0b");
    }

    #[test]
    #[should_panic(expected = "factory firmware must be signed")]
    fn unsigned_factory_image_bricks_provisioning() {
        let key = SigningKey::new(1);
        let mut bad = FirmwareImage::signed(&key, "efi", 1, b"x".to_vec());
        bad.signature = Signature(0);
        FirmwareStore::provision(key, bad);
    }

    #[test]
    fn digest_is_sensitive_to_every_input() {
        let key = SigningKey::new(7);
        let base = key.sign(b"abc", 1);
        assert_ne!(base, key.sign(b"abd", 1));
        assert_ne!(base, key.sign(b"abc", 2));
        assert_ne!(base, SigningKey::new(8).sign(b"abc", 1));
    }
}
