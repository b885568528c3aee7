//! Microbenchmarks of the functional crypto substrate (host wall-clock, not
//! simulated cycles — the simulated costs come from Table 1's latency model).

use dolos_bench::microbench::{bb, Bench};

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::{generate_pad, pad_line, xor_in_place, IvBuilder};
use dolos_crypto::mac::MacEngine;
use dolos_secmem::bmt::{data_mac, BonsaiMerkleTree};

fn main() {
    let mut b = Bench::from_args("crypto");

    // `aes_hw` vs `aes_portable` vs `aes_reference`: the AES-NI backend,
    // the T-table fallback and the byte-oriented specification both are
    // lockstep-pinned to. On a CPU without AES-NI the `aes_hw` rows run
    // the portable path (`Aes128::new` falls back), so they equal it.
    let key = Aes128::new(&[7; 16]);
    let portable = Aes128::new_portable(&[7; 16]);
    if !key.is_hardware() {
        eprintln!("crypto: no AES-NI on this CPU; aes_hw_* rows run the portable path");
    }
    let block = [0x5A; 16];
    b.run("aes_hw_encrypt_block", || key.encrypt_block(bb(&block)));
    b.run("aes_portable_encrypt_block", || {
        portable.encrypt_block(bb(&block))
    });
    b.run("aes_reference_encrypt_block", || {
        key.encrypt_block_reference(bb(&block))
    });

    let iv = IvBuilder::new().address(0x4000).counter(17).build();
    b.run("ctr_pad_64B", || generate_pad(bb(&key), bb(&iv), 64));
    b.run("aes_hw_pad_line_64B", || pad_line(bb(&key), bb(&iv)));
    b.run("aes_portable_pad_line_64B", || {
        pad_line(bb(&portable), bb(&iv))
    });

    let pad = generate_pad(&key, &iv, 64);
    b.run("line_xor_encrypt", || {
        let mut line = [0xABu8; 64];
        xor_in_place(&mut line, bb(&pad));
        line
    });

    let mac = MacEngine::new([9; 16]);
    let mac_portable = MacEngine::from_cipher(Aes128::new_portable(&[9; 16]));
    let line = [0x11u8; 64];
    b.run("aes_hw_cbc_mac_64B", || mac.tag(bb(&line)));
    b.run("aes_portable_cbc_mac_64B", || mac_portable.tag(bb(&line)));
    b.run("cbc_mac_parts", || {
        mac.tag_parts(bb(&[&line[..32], &line[32..], &line[..8]]))
    });
    b.run("cbc_mac_streaming", || {
        let mut s = mac.streamer(3);
        s.part(bb(&line[..32]));
        s.part(bb(&line[32..]));
        s.part(bb(&line[..8]));
        s.finish()
    });
    // The two multi-part MAC shapes on the Ma-SU write path: the data MAC
    // (address ‖ counter ‖ 64 B ciphertext = 80 B over 3 parts) and an
    // 8-ary BMT parent over its children's 8 B MACs.
    b.run("data_mac_80B", || data_mac(bb(&mac), 0x4000, 17, bb(&line)));
    let children = [[0x22u8; 8]; 8];
    b.run("bmt_parent_mac_8x8B", || {
        let c = bb(&children);
        mac.tag_parts(&[&c[0], &c[1], &c[2], &c[3], &c[4], &c[5], &c[6], &c[7]])
    });

    // Parent-MAC memoization (DESIGN.md §17). A leaf update only marks its
    // parent chain dirty; `root` after an update materializes that chain
    // (the miss path), while `root` on a clean tree returns the memoized
    // register (the hit path). The gap between these two rows is the host
    // work the deferral removes from every write that is never observed.
    let mut tree = BonsaiMerkleTree::new(256, &mac);
    b.run("mac_cache_parent_miss", || {
        tree.update_leaf(bb(&mac), 5, bb(&line));
        tree.root(&mac)
    });
    tree.root(&mac);
    b.run("mac_cache_parent_hit", || tree.root(bb(&mac)));
}
