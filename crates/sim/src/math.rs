//! Portable `exp` and `ln` for the samplers.
//!
//! The normal family of [`SimRng`](crate::SimRng) (the ziggurat's wedge
//! test and tail, and the log-normal transform) computes through these
//! rather than through `f64::exp` and `f64::ln`, whose precision std
//! leaves to the host's libm: it differs by platform and Rust release.
//! Both functions use only IEEE 754 basic operations (`+ − × ÷`,
//! comparisons and bit moves, each exactly rounded), fixed polynomials
//! and the checked-in tables below. There is no `mul_add`, whose result
//! depends on whether the target fuses it. So one input gives the same
//! bits on every host.
//!
//! Both are table-driven in the manner of Tang (ACM TOMS 15(2), 1989 and
//! 16(4), 1990): a 128-entry table whose entries are held as a leading
//! double plus a low-order tail, and a short polynomial on a reduced
//! argument. By error analysis each is within 1 ulp of the exact result
//! (about 0.51 ulp for `exp` and 0.6 for `ln`), and the accuracy tests
//! in this module check each against libm over 10⁷ seeded inputs.

/// `1.5 × 2^52`: adding and then subtracting it rounds a float of
/// magnitude below `2^51` to the nearest integer.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// `128 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `ln 2 / 128` split in two: the high part has 35 significant bits, so
/// `k × LN2_HI_N` is exact for every `|k| < 2^18`.
const LN2_HI_N: f64 = f64::from_bits(0x3f76_2e42_fefc_0000);
const LN2_LO_N: f64 = f64::from_bits(0xbd3c_610c_a86c_3899);
/// Above this `exp` is infinite (`ln f64::MAX ≈ 709.7827`); the few
/// inputs between the true threshold and this one overflow in the final
/// scaling.
const EXP_OVERFLOW: f64 = 709.8;
/// At or below this `exp` is zero (`ln 2^-1075 ≈ −745.1332`); inputs
/// between this and the true threshold round to zero in the final
/// scaling.
const EXP_UNDERFLOW: f64 = -745.2;

/// `2^(j/128)` for `j` in `0..128`, as the bits of the nearest double
/// and of the nearest double to the remainder.
#[rustfmt::skip]
const EXP_TABLE: [(u64, u64); 128] = [
    (0x3ff0000000000000, 0x0000000000000000),
    (0x3ff0163da9fb3335, 0x3c9b61299ab8cdb7),
    (0x3ff02c9a3e778061, 0xbc719083535b085d),
    (0x3ff04315e86e7f85, 0xbc90a31c1977c96e),
    (0x3ff059b0d3158574, 0x3c8d73e2a475b465),
    (0x3ff0706b29ddf6de, 0xbc8c91dfe2b13c27),
    (0x3ff0874518759bc8, 0x3c6186be4bb284ff),
    (0x3ff09e3ecac6f383, 0x3c91487818316136),
    (0x3ff0b5586cf9890f, 0x3c98a62e4adc610b),
    (0x3ff0cc922b7247f7, 0x3c901edc16e24f71),
    (0x3ff0e3ec32d3d1a2, 0x3c403a1727c57b53),
    (0x3ff0fb66affed31b, 0xbc6b9bedc44ebd7b),
    (0x3ff11301d0125b51, 0xbc96c51039449b3a),
    (0x3ff12abdc06c31cc, 0xbc51b514b36ca5c7),
    (0x3ff1429aaea92de0, 0xbc932fbf9af1369e),
    (0x3ff15a98c8a58e51, 0x3c82406ab9eeab0a),
    (0x3ff172b83c7d517b, 0xbc819041b9d78a76),
    (0x3ff18af9388c8dea, 0xbc911023d1970f6c),
    (0x3ff1a35beb6fcb75, 0x3c8e5b4c7b4968e4),
    (0x3ff1bbe084045cd4, 0xbc995386352ef607),
    (0x3ff1d4873168b9aa, 0x3c9e016e00a2643c),
    (0x3ff1ed5022fcd91d, 0xbc91df98027bb78c),
    (0x3ff2063b88628cd6, 0x3c8dc775814a8495),
    (0x3ff21f49917ddc96, 0x3c82a97e9494a5ee),
    (0x3ff2387a6e756238, 0x3c99b07eb6c70573),
    (0x3ff251ce4fb2a63f, 0x3c8ac155bef4f4a4),
    (0x3ff26b4565e27cdd, 0x3c82bd339940e9d9),
    (0x3ff284dfe1f56381, 0xbc9a4c3a8c3f0d7e),
    (0x3ff29e9df51fdee1, 0x3c8612e8afad1255),
    (0x3ff2b87fd0dad990, 0xbc410adcd6381aa4),
    (0x3ff2d285a6e4030b, 0x3c90024754db41d5),
    (0x3ff2ecafa93e2f56, 0x3c71ca0f45d52383),
    (0x3ff306fe0a31b715, 0x3c86f46ad23182e4),
    (0x3ff32170fc4cd831, 0x3c8a9ce78e18047c),
    (0x3ff33c08b26416ff, 0x3c932721843659a6),
    (0x3ff356c55f929ff1, 0xbc8b5cee5c4e4628),
    (0x3ff371a7373aa9cb, 0xbc963aeabf42eae2),
    (0x3ff38cae6d05d866, 0xbc9e958d3c9904bd),
    (0x3ff3a7db34e59ff7, 0xbc75e436d661f5e3),
    (0x3ff3c32dc313a8e5, 0xbc9efff8375d29c3),
    (0x3ff3dea64c123422, 0x3c8ada0911f09ebc),
    (0x3ff3fa4504ac801c, 0xbc97d023f956f9f3),
    (0x3ff4160a21f72e2a, 0xbc5ef3691c309278),
    (0x3ff431f5d950a897, 0xbc81c7dde35f7999),
    (0x3ff44e086061892d, 0x3c489b7a04ef80d0),
    (0x3ff46a41ed1d0057, 0x3c9c944bd1648a76),
    (0x3ff486a2b5c13cd0, 0x3c73c1a3b69062f0),
    (0x3ff4a32af0d7d3de, 0x3c99cb62f3d1be56),
    (0x3ff4bfdad5362a27, 0x3c7d4397afec42e2),
    (0x3ff4dcb299fddd0d, 0x3c98ecdbbc6a7833),
    (0x3ff4f9b2769d2ca7, 0xbc94b309d25957e3),
    (0x3ff516daa2cf6642, 0xbc8f768569bd93ef),
    (0x3ff5342b569d4f82, 0xbc807abe1db13cad),
    (0x3ff551a4ca5d920f, 0xbc8d689cefede59b),
    (0x3ff56f4736b527da, 0x3c99bb2c011d93ad),
    (0x3ff58d12d497c7fd, 0x3c8295e15b9a1de8),
    (0x3ff5ab07dd485429, 0x3c96324c054647ad),
    (0x3ff5c9268a5946b7, 0x3c3c4b1b816986a2),
    (0x3ff5e76f15ad2148, 0x3c9ba6f93080e65e),
    (0x3ff605e1b976dc09, 0xbc93e2429b56de47),
    (0x3ff6247eb03a5585, 0xbc9383c17e40b497),
    (0x3ff6434634ccc320, 0xbc8c483c759d8933),
    (0x3ff6623882552225, 0xbc9bb60987591c34),
    (0x3ff68155d44ca973, 0x3c6038ae44f73e65),
    (0x3ff6a09e667f3bcd, 0xbc9bdd3413b26456),
    (0x3ff6c012750bdabf, 0xbc72895667ff0b0d),
    (0x3ff6dfb23c651a2f, 0xbc6bbe3a683c88ab),
    (0x3ff6ff7df9519484, 0xbc883c0f25860ef6),
    (0x3ff71f75e8ec5f74, 0xbc816e4786887a99),
    (0x3ff73f9a48a58174, 0xbc90a8d96c65d53c),
    (0x3ff75feb564267c9, 0xbc90245957316dd3),
    (0x3ff780694fde5d3f, 0x3c9866b80a02162d),
    (0x3ff7a11473eb0187, 0xbc841577ee04992f),
    (0x3ff7c1ed0130c132, 0x3c9f124cd1164dd6),
    (0x3ff7e2f336cf4e62, 0x3c705d02ba15797e),
    (0x3ff80427543e1a12, 0xbc927c86626d972b),
    (0x3ff82589994cce13, 0xbc9d4c1dd41532d8),
    (0x3ff8471a4623c7ad, 0xbc88d684a341cdfb),
    (0x3ff868d99b4492ed, 0xbc9fc6f89bd4f6ba),
    (0x3ff88ac7d98a6699, 0x3c9994c2f37cb53a),
    (0x3ff8ace5422aa0db, 0x3c96e9f156864b27),
    (0x3ff8cf3216b5448c, 0xbc70d55e32e9e3aa),
    (0x3ff8f1ae99157736, 0x3c85cc13a2e3976c),
    (0x3ff9145b0b91ffc6, 0xbc9dd6792e582524),
    (0x3ff93737b0cdc5e5, 0xbc675fc781b57ebc),
    (0x3ff95a44cbc8520f, 0xbc764b7c96a5f039),
    (0x3ff97d829fde4e50, 0xbc9d185b7c1b85d1),
    (0x3ff9a0f170ca07ba, 0xbc9173bd91cee632),
    (0x3ff9c49182a3f090, 0x3c7c7c46b071f2be),
    (0x3ff9e86319e32323, 0x3c7824ca78e64c6e),
    (0x3ffa0c667b5de565, 0xbc9359495d1cd533),
    (0x3ffa309bec4a2d33, 0x3c96305c7ddc36ab),
    (0x3ffa5503b23e255d, 0xbc9d2f6edb8d41e1),
    (0x3ffa799e1330b358, 0x3c9bcb7ecac563c7),
    (0x3ffa9e6b5579fdbf, 0x3c90fac90ef7fd31),
    (0x3ffac36bbfd3f37a, 0xbc8f9234cae76cd0),
    (0x3ffae89f995ad3ad, 0x3c97a1cd345dcc81),
    (0x3ffb0e07298db666, 0xbc9bdef54c80e425),
    (0x3ffb33a2b84f15fb, 0xbc62805e3084d708),
    (0x3ffb59728de5593a, 0xbc9c71dfbbba6de3),
    (0x3ffb7f76f2fb5e47, 0xbc75584f7e54ac3b),
    (0x3ffba5b030a1064a, 0xbc9efcd30e54292e),
    (0x3ffbcc1e904bc1d2, 0x3c823dd07a2d9e84),
    (0x3ffbf2c25bd71e09, 0xbc9efdca3f6b9c73),
    (0x3ffc199bdd85529c, 0x3c811065895048dd),
    (0x3ffc40ab5fffd07a, 0x3c9b4537e083c60a),
    (0x3ffc67f12e57d14b, 0x3c92884dff483cad),
    (0x3ffc8f6d9406e7b5, 0x3c71acbc48805c44),
    (0x3ffcb720dcef9069, 0x3c7503cbd1e949db),
    (0x3ffcdf0b555dc3fa, 0xbc8dd83b53829d72),
    (0x3ffd072d4a07897c, 0xbc9cbc3743797a9c),
    (0x3ffd2f87080d89f2, 0xbc9d487b719d8578),
    (0x3ffd5818dcfba487, 0x3c82ed02d75b3707),
    (0x3ffd80e316c98398, 0xbc911ec18beddfe8),
    (0x3ffda9e603db3285, 0x3c9c2300696db532),
    (0x3ffdd321f301b460, 0x3c92da5778f018c3),
    (0x3ffdfc97337b9b5f, 0xbc91a5cd4f184b5c),
    (0x3ffe264614f5a129, 0xbc97b627817a1496),
    (0x3ffe502ee78b3ff6, 0x3c839e8980a9cc8f),
    (0x3ffe7a51fbc74c83, 0x3c92d522ca0c8de2),
    (0x3ffea4afa2a490da, 0xbc9e9c23179c2893),
    (0x3ffecf482d8e67f1, 0xbc9c93f3b411ad8c),
    (0x3ffefa1bee615a27, 0x3c9dc7f486a4b6b0),
    (0x3fff252b376bba97, 0x3c93a1a5bf0d8e43),
    (0x3fff50765b6e4540, 0x3c99d3e12dd8a18b),
    (0x3fff7bfdad9cbe14, 0xbc9dbb12d006350a),
    (0x3fffa7c1819e90d8, 0x3c874853f3a5931e),
    (0x3fffd3c22b8f71f1, 0x3c62eb74966579e7),
];

/// `ln 2` split in two: the high part is a multiple of `2^-43`, as is
/// each `LN_TABLE` high part, so `k × LN2_HI + ln(c)_hi` is exact for
/// every exponent `k` of a double.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fefa_3800);
const LN2_LO: f64 = f64::from_bits(0x3d2e_f357_93c7_6730);
/// `ln` takes its near-1 path below this distance from 1.
const LN_NEAR_ONE: f64 = 1.0 / 16.0;
/// `ln(c_j)` for the subinterval centres `c_j = 1 + (j + ½)/128` (halved
/// for `j ≥ 52`, so every centre lies in `[0.70, 1.41)`), as the bits of
/// the nearest multiple of `2^-43` and of the nearest double to the
/// remainder.
#[rustfmt::skip]
const LN_TABLE: [(u64, u64); 128] = [
    (0x3f6ff00aa2b00000, 0x3d20bc04a086b56a),
    (0x3f87dc475f810000, 0x3cf4edba4a25e0b1),
    (0x3f93cea443468000, 0x3d22ba779a52b7ea),
    (0x3f9b9fc027af8000, 0x3d1197fbd465b759),
    (0x3fa1b0d98923c000, 0x3d297fc2ca2eec8a),
    (0x3fa58a5bafc90000, 0xbd2b2b739570ad39),
    (0x3fa95c830ec90000, 0xbd2c148297c5feb8),
    (0x3fad276b8adb0000, 0x3d16a423c78a64b0),
    (0x3fb075983598e000, 0x3d11c4c06d2999e2),
    (0x3fb253f62f0a2000, 0xbd27d20e092cb1fe),
    (0x3fb42edcbea64000, 0x3d1bc0eeea7c9acd),
    (0x3fb60658a9376000, 0xbd2e789c422c7611),
    (0x3fb7da766d7b2000, 0xbd2a66f776fe6eca),
    (0x3fb9ab4246204000, 0xbd28a64826787061),
    (0x3fbb78c82bb0e000, 0x3d2b4210878cf032),
    (0x3fbd4313d66cc000, 0xbd29454379135713),
    (0x3fbf0a30c0116000, 0x3d05330be64b8b77),
    (0x3fc0671512ca6000, 0xbd2a47579cdc0a3d),
    (0x3fc1478584674000, 0x3d1563451027c750),
    (0x3fc2266f190a6000, 0xbd24d20ab840e7f6),
    (0x3fc303d718e48000, 0xbcd680b5ce3ecb05),
    (0x3fc3dfc2b0ecc000, 0x3d28a72a62b8c13f),
    (0x3fc4ba36f39a5000, 0x3d279568981bcc36),
    (0x3fc59338d9982000, 0x3cf0ba68b7555d4a),
    (0x3fc66acd4272b000, 0xbd15790900e4e1eb),
    (0x3fc740f8f5403000, 0x3d2e9326cdfceabe),
    (0x3fc815c0a1435000, 0x3d2fab5a0dbfc630),
    (0x3fc8e928de887000, 0xbd15faad3b0a34ad),
    (0x3fc9bb362e7e0000, 0xbd21f2a8a1ce0ffc),
    (0x3fca8becfc883000, 0xbcfce7a30de4630e),
    (0x3fcb5b519e8fb000, 0x3d2691ba27fdc19e),
    (0x3fcc2968558c2000, 0xbd2cfd73dee38a40),
    (0x3fccf6354e09c000, 0x3d2771239a07d55b),
    (0x3fcdc1bca0abf000, 0xbd1c14f9675ccce9),
    (0x3fce8c0252aa6000, 0xbd26805b80e8e6ff),
    (0x3fcf550a564b8000, 0xbd2323e3a09202fe),
    (0x3fd00e6c45ad5000, 0x3cdcc68d52e01203),
    (0x3fd071b85fcd5800, 0x3d10d1d1707f97be),
    (0x3fd0d46b579ab800, 0xbd069bf04df8f0d1),
    (0x3fd136870293a800, 0x3d060bdb314c76e9),
    (0x3fd1980d2dd42000, 0x3d2b7b3a7a361c9a),
    (0x3fd1f8ff9e48a000, 0x3d27946c040cbe77),
    (0x3fd2596010df7800, 0xbd1c610f76c57076),
    (0x3fd2b9303ab8a000, 0xbd26db12d6bfb0a5),
    (0x3fd31871c9544000, 0x3d184fab94cecfd9),
    (0x3fd3772662bfd800, 0x3cf6bc953ac4fdd0),
    (0x3fd3d54fa5c1f800, 0xbd0e0f1932e350e5),
    (0x3fd432ef2a04e800, 0x3cd3b59b3a3a94dc),
    (0x3fd4900680400800, 0x3d1d0cc00797c1d1),
    (0x3fd4ec9732600000, 0x3d234d7aaf04d104),
    (0x3fd548a2c3add000, 0x3d23167e63081cf7),
    (0x3fd5a42ab0f4d000, 0xbcde63af2df7ba69),
    (0xbfd65d558d4ce000, 0xbcc544fd2dc5bdc0),
    (0xbfd602d08af09000, 0xbd1ebe9176df3f65),
    (0xbfd5a8cadbbee000, 0x3cf7c79b0af7ecf8),
    (0xbfd54f431b7be000, 0xbd1a8954c0910952),
    (0xbfd4f637ebba9800, 0xbccf539a676da36e),
    (0xbfd49da7f3bcc800, 0x3d2f099964a168cd),
    (0xbfd44591e053a000, 0x3d06e95892923d88),
    (0xbfd3edf463c16800, 0xbcef307ad01a7821),
    (0xbfd396ce359bc000, 0x3d05839c5663663d),
    (0xbfd3401e12aec800, 0xbd2d07195523adc6),
    (0xbfd2e9e2bce12000, 0xbd24300c128d1dc2),
    (0xbfd2941afb186800, 0xbd2bde7a919e3aeb),
    (0xbfd23ec5991eb800, 0xbd2248376eba35bc),
    (0xbfd1e9e167889800, 0xbd1f4544b0dd2688),
    (0xbfd1956d3b9bc000, 0xbd27d2f73ad1aa14),
    (0xbfd14167ef367800, 0x3cff3f87db2550ac),
    (0xbfd0edd060b78000, 0xbd0019b52d8435f5),
    (0xbfd09aa572e6c800, 0x3d12bd787a32f2f6),
    (0xbfd047e60cde8000, 0xbd2dbdf10d397f3c),
    (0xbfcfeb2233ea0000, 0xbd2f3418de00938b),
    (0xbfcf474b134df000, 0xbd1146d838821289),
    (0xbfcea4449f04b000, 0x3d242dd33919ab94),
    (0xbfce020cc6236000, 0x3d252b00adb91424),
    (0xbfcd60a17f903000, 0xbd24523f207be58e),
    (0xbfccc000c9db4000, 0x3d1d6d585d57aff9),
    (0xbfcc2028ab180000, 0x3d292e0ee55c7ac6),
    (0xbfcb811730b82000, 0xbd1e90683b9cd768),
    (0xbfcae2ca6f673000, 0x3d20ae54a356155f),
    (0xbfca454082e6b000, 0x3d23eb106fc11d1e),
    (0xbfc9a8778debb000, 0x3d271e0b820278e0),
    (0xbfc90c6db9fcc000, 0x3d1935f57718d7ca),
    (0xbfc871213750f000, 0x3d29ae297a0ca116),
    (0xbfc7d6903caf6000, 0x3d24c06b17c301d7),
    (0xbfc73cb9074fd000, 0xbd04cab797ffd2cc),
    (0xbfc6a399dabbd000, 0xbd1c1b2c6657a967),
    (0xbfc60b3100b09000, 0xbd21d7526cee0fd8),
    (0xbfc5737cc9019000, 0x3d191561651de028),
    (0xbfc4dc7b897bc000, 0xbd0c79b60ae1ff0f),
    (0xbfc4462b9dc9b000, 0xbd1ede9d63b93e7a),
    (0xbfc3b08b6757f000, 0xbd15485c35b37c15),
    (0xbfc31b994d3a5000, 0x3ceece238b5efe06),
    (0xbfc28753bc11b000, 0x3d216d6394d9fa33),
    (0xbfc1f3b925f26000, 0x3d15f74e9b083633),
    (0xbfc160c8024b2000, 0xbd2ec2d2a9009e3d),
    (0xbfc0ce7ecdccc000, 0xbd14652dabff5447),
    (0xbfc03cdc0a51f000, 0x3d1f958c3a580e90),
    (0xbfbf57bc7d900000, 0xbd176a6c9ea8b04e),
    (0xbfbe3707ee304000, 0xbd20f684e6766abd),
    (0xbfbd17978821a000, 0x3d29379894208225),
    (0xbfbbf968769fc000, 0xbd24218c8d824283),
    (0xbfbadc77ee5ae000, 0xbd25189bec79cdf7),
    (0xbfb9c0c32d4d2000, 0xbd1520fd85f1e661),
    (0xbfb8a6477a91e000, 0x3d0eb9fa83214905),
    (0xbfb78d02263d8000, 0xbd069b5794b69fb7),
    (0xbfb674f089366000, 0x3d16199acd8b33f9),
    (0xbfb55e10050e0000, 0xbd0c1d740c53c72e),
    (0xbfb4485e03dbe000, 0x3cd4ae45cb655244),
    (0xbfb333d7f8184000, 0x3ce692b6a81b8848),
    (0xbfb2207b5c786000, 0x3d26c4e607de7082),
    (0xbfb10e45b3cae000, 0xbd20612daf6b9737),
    (0xbfaffa6911ab8000, 0xbd23008c98381a8f),
    (0xbfadda8adc680000, 0x3d21b1ac64d9e42f),
    (0xbfabbcebfc690000, 0x3d17bf868c317c2a),
    (0xbfa9a187b573c000, 0xbd2e7ba362764de5),
    (0xbfa788595a358000, 0x3d108b0d083b3a4c),
    (0xbfa5715c4c03c000, 0xbd1dddc880ee2760),
    (0xbfa35c8bfaa14000, 0x3d1f2a0a8418532b),
    (0xbfa149e3e4004000, 0xbd2a8ceacb7d2e06),
    (0xbf9e72bf28140000, 0x3d28d75149774d47),
    (0xbf9a55f548c60000, 0x3d2de0709f2d03c9),
    (0xbf963d6178690000, 0xbd07abf389596542),
    (0xbf9228fb1fea0000, 0xbd2713e3284991fe),
    (0xbf8c317384c70000, 0xbd27c19806208c05),
    (0xbf841929f9680000, 0xbd1977c755d01368),
    (0xbf78121214580000, 0xbd1ad50382973f27),
    (0xbf60040155d40000, 0xbd2889de70671eef),
];

/// `e^x`.
///
/// Write `x = (128m + j)·ln2/128 + r` with `|r| ≤ ln2/256`; then
/// `e^x = 2^m · 2^(j/128) · e^r`, where `2^(j/128)` comes from
/// `EXP_TABLE` and `e^r − 1` from its degree-5 Taylor polynomial
/// (truncation below `2^-60`). Overflows to `∞` and underflows through
/// the subnormals to `0` as IEEE arithmetic does.
pub fn exp(x: f64) -> f64 {
    if x.abs() < 708.0 {
        let (s, m) = exp_reduced(x);
        s * pow2(m)
    } else {
        exp_far(x)
    }
}

/// `exp` for `|x| ≥ 708` and `NaN`. The result is `s·2^m` with `s` in
/// `[0.99, 2)` and `|m|` above 1020, so it scales in two exact steps and
/// only the last one can round (to a subnormal) or overflow.
#[cold]
fn exp_far(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x <= EXP_UNDERFLOW {
        return 0.0;
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    let (s, m) = exp_reduced(x);
    if m < 0 {
        s * pow2(m + 1000) * pow2(-1000)
    } else {
        s * pow2(m - 1000) * pow2(1000)
    }
}

/// `(s, m)` with `e^x ≈ s·2^m`: `s = 2^(j/128)·e^r` for
/// `x = (128m + j)·ln2/128 + r`.
fn exp_reduced(x: f64) -> (f64, i64) {
    let kd = (x * INV_LN2_N + SHIFT) - SHIFT;
    let k = kd as i64;
    // Exact up to the last subtraction (Cody–Waite).
    let r = (x - kd * LN2_HI_N) - kd * LN2_LO_N;
    let (hi, lo) = EXP_TABLE[(k & 127) as usize];
    let (t_hi, t_lo) = (f64::from_bits(hi), f64::from_bits(lo));
    let p = r + r * r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0))));
    (t_hi + (t_lo + t_hi * p), k >> 7)
}

/// `2^m` for a normal exponent `m`.
fn pow2(m: i64) -> f64 {
    f64::from_bits(((m + 1023) as u64) << 52)
}

/// The natural logarithm: `NaN` below zero, `−∞` at zero.
///
/// Near 1 (`|x − 1| < 1/16`) it sums the Taylor series of `ln(1 + f)`
/// at the exact `f = x − 1` to degree 15. Elsewhere it writes
/// `x = 2^k · z` with `z` in `[0.70, 1.41)`, takes the centre `c` of
/// `z`'s 1/128-wide subinterval, and returns
/// `k·ln2 + ln(c) + ln(1 + r)` for `r = (z − c)/c`, carrying the first
/// sum in two parts so it loses no bits to cancellation.
pub fn ln(x: f64) -> f64 {
    let f = x - 1.0;
    if f.abs() < LN_NEAR_ONE {
        return ln_near_one(f);
    }
    let (mut k, mut ix) = (0i64, x.to_bits());
    if !(f64::MIN_POSITIVE..f64::INFINITY).contains(&x) {
        if x.is_nan() || x == f64::INFINITY {
            return x;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x < 0.0 {
            return f64::NAN;
        }
        // A subnormal: scale it into the normals, exactly.
        ix = (x * pow2(52)).to_bits();
        k = -52;
    }
    const FRAC: u64 = (1 << 52) - 1;
    let j = (ix >> 45) & 127;
    // Mantissas from 1 + 52/128 up are halved, so z stays near 1.
    let biased = if j < 52 { 1023 } else { 1022 };
    k += (ix >> 52) as i64 - biased as i64;
    let z_bits = (ix & FRAC) | (biased << 52);
    let c_bits = (z_bits & !((1 << 45) - 1)) | (1 << 44);
    let (z, c) = (f64::from_bits(z_bits), f64::from_bits(c_bits));
    // z − c is exact (same binade, within half a step).
    let r = (z - c) / c;
    let (lc_hi, lc_lo) = LN_TABLE[j as usize];
    let kd = k as f64;
    let w = kd * LN2_HI + f64::from_bits(lc_hi);
    let hi = w + r;
    // |w| > 0.05 > |r|, so (w − hi) + r is the exact rounding error.
    let lo = ((w - hi) + r) + (kd * LN2_LO + f64::from_bits(lc_lo));
    let r2 = r * r;
    let p = r2
        * (-0.5 + r * (1.0 / 3.0 + r * (-0.25 + r * (0.2 + r * (-1.0 / 6.0 + r * (1.0 / 7.0))))));
    hi + (lo + p)
}

/// `ln(1 + f)` for `|f| < 1/16`: Taylor to degree 15 (truncation below
/// `2^-64` relative).
fn ln_near_one(f: f64) -> f64 {
    // (−1)^(n+1)/n for n = 15 down to 2.
    const TAYLOR: [f64; 14] = [
        1.0 / 15.0,
        -1.0 / 14.0,
        1.0 / 13.0,
        -1.0 / 12.0,
        1.0 / 11.0,
        -1.0 / 10.0,
        1.0 / 9.0,
        -1.0 / 8.0,
        1.0 / 7.0,
        -1.0 / 6.0,
        1.0 / 5.0,
        -1.0 / 4.0,
        1.0 / 3.0,
        -1.0 / 2.0,
    ];
    let q = TAYLOR.iter().fold(0.0, |q, &c| q * f + c);
    f + f * f * q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// The distance in ulps between two finite doubles, through the
    /// order-preserving map of their bits (so `−0` and `+0` are 0 apart).
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Compares `ours` with the host's libm over `n` seeded inputs,
    /// prints the histogram of ulp distances and returns the largest.
    fn libm_distance(
        name: &str,
        n: usize,
        mut input: impl FnMut(&mut SimRng) -> f64,
        ours: fn(f64) -> f64,
        libm: fn(f64) -> f64,
    ) -> u64 {
        let mut rng = SimRng::with_stream(n as u64, 0x3a7b);
        let (mut hist, mut worst) = ([0u64; 3], (0, 0.0));
        for _ in 0..n {
            let x = input(&mut rng);
            let d = ulps(ours(x), libm(x));
            hist[(d as usize).min(2)] += 1;
            if d > worst.0 {
                worst = (d, x);
            }
        }
        println!(
            "{name}: {n} inputs, ulps from libm: 0 → {}, 1 → {}, ≥2 → {}; max {} at {:e}",
            hist[0], hist[1], hist[2], worst.0, worst.1
        );
        worst.0
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm() {
        let full = |r: &mut SimRng| r.range_f64(-745.0, 709.7);
        assert!(libm_distance("exp on [-745, 709.7]", 10_000_000, full, exp, f64::exp) <= 1);
        // The log-normal samplers' arguments live near zero.
        let near = |r: &mut SimRng| r.range_f64(-40.0, 40.0);
        assert!(libm_distance("exp on [-40, 40]", 1_000_000, near, exp, f64::exp) <= 1);
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm() {
        // Log-uniform over the positive normals: a uniform exponent
        // field and uniform mantissa bits.
        let normals =
            |r: &mut SimRng| f64::from_bits((1 + r.below(2046)) << 52 | r.next_u64() >> 12);
        assert!(libm_distance("ln on the normals", 10_000_000, normals, ln, f64::ln) <= 1);
        // Both sides of the near-1 path's edges at 1 ± 1/16.
        let near = |r: &mut SimRng| r.range_f64(0.85, 1.15);
        assert!(libm_distance("ln on [0.85, 1.15]", 1_000_000, near, ln, f64::ln) <= 1);
        let subnormals = |r: &mut SimRng| f64::from_bits(r.next_u64() >> 12 | 1);
        assert!(libm_distance("ln on the subnormals", 10_000, subnormals, ln, f64::ln) <= 1);
    }

    #[test]
    fn special_cases_are_exact() {
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        // Overflow: the largest x with a finite e^x, then the next double.
        let top = 709.782712893384;
        assert!(exp(top).is_finite() && exp(top) > 1.79e308);
        assert_eq!(exp(top.next_up()), f64::INFINITY);
        // Underflow: e^x is the least subnormal down to about
        // ln 2^-1075, and zero below.
        let bottom = -745.1332191019411;
        assert_eq!(exp(bottom), f64::from_bits(1));
        assert_eq!(exp(bottom.next_down()).to_bits(), 0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan());
        assert_eq!(ln(std::f64::consts::E), 1.0);
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
    }
}
