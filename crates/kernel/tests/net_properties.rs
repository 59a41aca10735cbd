//! Property tests: a stream socket's receive queue is a plain byte FIFO.
//! Random send sizes and random `recv(len)` sizes drive the queue's ring
//! buffer around its end, so `recv` copies out of both of its parts; a
//! `Vec<u8>` of the bytes sent but not yet received is the model.

use enclosure_kernel::net::{Network, SockAddr, SocketId};
use enclosure_kernel::Errno;
use enclosure_support::XorShift;

fn connected_pair(net: &mut Network) -> (SocketId, SocketId) {
    let listener = net.socket();
    net.bind(listener, SockAddr::local(80)).unwrap();
    net.listen(listener).unwrap();
    let client = net.socket();
    net.connect(client, SockAddr::local(80)).unwrap();
    let server = net.accept(listener).unwrap();
    (client, server)
}

/// Receives up to a random length and checks it against the model.
fn recv_checked(net: &mut Network, sock: SocketId, model: &mut Vec<u8>, rng: &mut XorShift) {
    let len = rng.range_usize(1, 400);
    match net.recv(sock, len) {
        Ok(got) => {
            let take = len.min(model.len());
            assert!(take > 0, "data from an empty queue");
            assert_eq!(got, model.drain(..take).collect::<Vec<u8>>());
        }
        Err(e) => {
            assert_eq!(e, Errno::Eagain);
            assert!(model.is_empty(), "Eagain with {} bytes queued", model.len());
        }
    }
}

enclosure_support::props! {
    /// Interleaved sends and receives hand back exactly the model's
    /// bytes, in order; an empty open socket says `Eagain`; after the
    /// peer closes the rest drains in order, then EOF (an empty vec).
    fn recv_matches_a_vec_model(rng, cases = 256) {
        let mut net = Network::new();
        let (client, server) = connected_pair(&mut net);
        let mut model: Vec<u8> = Vec::new();
        for _ in 0..rng.range_usize(1, 96) {
            if rng.next_bool() {
                let len = rng.range_usize(0, 300);
                let data = rng.bytes(len);
                assert_eq!(net.send(client, &data), Ok(data.len()));
                model.extend_from_slice(&data);
            } else {
                recv_checked(&mut net, server, &mut model, rng);
            }
        }
        net.close(client).unwrap();
        while !model.is_empty() {
            recv_checked(&mut net, server, &mut model, rng);
        }
        assert_eq!(net.recv(server, 1), Ok(Vec::new()), "EOF after the drain");
        assert_eq!(net.recv(server, 1), Ok(Vec::new()), "EOF stays EOF");
    }
}
